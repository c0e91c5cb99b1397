//! E-C — chaos: graceful degradation under injected faults.
//!
//! Installs a seeded [`FaultPlan`] on the testbed — the meta server and
//! the primary NSM host crash, the client ↔ meta link partitions, the
//! client ↔ public-BIND link takes a latency spike — and walks the same
//! warm / cold / `Import` trio through three phases:
//!
//! 1. **baseline** — faults scheduled but not yet active; every path
//!    succeeds and the warm cache fills.
//! 2. **fault** — virtual time is advanced past the cache TTL and into
//!    the fault windows. The warm `FindNSM` keeps answering from expired
//!    cache entries (serve-stale, paper §4, marked `stale_served`), the
//!    cold `FindNSM` fails fast with a typed `HostUnreachable`, and
//!    `Import` fails over from the crashed primary binding NSM to a
//!    replica on another host.
//! 3. **recovery** — time is advanced past every window; all three paths
//!    succeed again with no stale serves and no failovers, proving
//!    nothing got permanently stuck.
//!
//! Everything runs in virtual time under a seeded plan, so the rendered
//! report and the `hns-chaos-v1` JSON export are byte-identical across
//! runs with the same configuration.

use std::sync::Arc;

use hns_core::cache::CacheMode;
use hns_core::colocation::HnsHandle;
use hns_core::error::HnsError;
use hns_core::name::HnsName;
use hns_core::obs::MetricsSnapshot;
use hrpc::RpcError;
use nsms::harness::{Testbed, DESIRED_SERVICE, DESIRED_SERVICE_PROGRAM};
use nsms::Importer;
use simnet::faults::FaultPlan;
use simnet::rng::DetRng;
use simnet::time::{SimDuration, SimTime};

use crate::cells::PlainTable;

/// Which faults the chaos scenario injects (the `experiments chaos`
/// flags).
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// Crash the meta server and the primary NSM host.
    pub crash: bool,
    /// Partition the client ↔ meta link.
    pub partition: bool,
    /// Add a latency spike to the client ↔ public-BIND link.
    pub latency_spike: bool,
    /// Seed for the window-jitter RNG.
    pub seed: u64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            crash: true,
            partition: true,
            latency_spike: true,
            seed: 42,
        }
    }
}

/// One operation observed during the scenario.
#[derive(Debug, Clone)]
pub struct ChaosEvent {
    /// `baseline`, `fault`, or `recovery`.
    pub phase: &'static str,
    /// Which operation ran.
    pub label: &'static str,
    /// What happened (`ok`, `ok (stale)`, `ok (failover)`, or an error).
    pub outcome: String,
    /// Virtual time the operation took.
    pub took_us: u64,
}

/// Aggregate outcomes the acceptance assertions read.
#[derive(Debug, Clone, Copy)]
pub struct ChaosOutcomes {
    /// Queries answered from expired cache entries (`faults/stale_served`).
    pub stale_served: u64,
    /// Calls that gave up with `HostUnreachable` (`faults/unreachable_calls`).
    pub host_unreachable: u64,
    /// Imports served by the alternate NSM (`faults/nsm_failovers`).
    pub nsm_failovers: u64,
    /// Every recovery-phase operation succeeded without stale serves.
    pub recovered: bool,
}

/// The full chaos run.
#[derive(Debug, Clone)]
pub struct ChaosRun {
    /// The fault selection it ran with.
    pub config: ChaosConfig,
    /// Per-operation observations, in execution order.
    pub events: Vec<ChaosEvent>,
    /// Aggregate outcomes.
    pub outcomes: ChaosOutcomes,
    /// The unified metrics snapshot taken after recovery.
    pub snapshot: MetricsSnapshot,
}

/// The latency added to the client ↔ public-BIND link, in milliseconds.
pub const SPIKE_MS: f64 = 250.0;
/// Length of every fault window, in virtual seconds.
pub const WINDOW_SECS: u64 = 120;

fn record(
    world: &simnet::World,
    events: &mut Vec<ChaosEvent>,
    phase: &'static str,
    label: &'static str,
    op: impl FnOnce() -> Result<String, HnsError>,
) {
    let t0 = world.now();
    let outcome = match op() {
        Ok(tag) => tag,
        Err(HnsError::Rpc(RpcError::HostUnreachable { host, attempts })) => {
            format!("HostUnreachable({host}, {attempts} attempts)")
        }
        Err(other) => format!("error: {other}"),
    };
    events.push(ChaosEvent {
        phase,
        label,
        outcome,
        took_us: world.now().since(t0).as_us(),
    });
}

/// Runs the chaos scenario.
pub fn run(config: &ChaosConfig) -> ChaosRun {
    let tb = Testbed::build();
    tb.deploy_binding_nsms(tb.hosts.nsm, CacheMode::Demarshalled);
    let replica = tb.deploy_binding_bind_replica(tb.hosts.agent, CacheMode::Demarshalled);
    let warm = tb.make_hns(tb.hosts.client, CacheMode::Demarshalled);
    let cold = tb.make_hns(tb.hosts.client, CacheMode::Disabled);
    let importer = Importer::new(
        Arc::clone(&tb.net),
        tb.hosts.client,
        HnsHandle::Linked(Arc::clone(&warm)),
    );
    importer.set_alternate_nsm(Some(replica));
    let name = HnsName::new(tb.ctx_bind(), "fiji.cs.washington.edu").expect("name");
    let qc = hns_core::query::QueryClass::hrpc_binding();
    let world = &tb.world;

    let warm_op = |warm: &Arc<hns_core::service::Hns>| {
        let (_, report) = warm.find_nsm_report(&qc, &name)?;
        Ok(if report.stale_served {
            "ok (stale)".to_string()
        } else {
            "ok".to_string()
        })
    };
    // Read through a snapshot: asking the registry for the counter would
    // *register* it, and `faults/*` rows must only appear once a fault
    // actually fires.
    let failovers = || {
        world
            .metrics()
            .snapshot()
            .counter("faults", "nsm_failovers")
            .unwrap_or(0)
    };
    let import_op = |importer: &Importer| {
        let before = failovers();
        importer.import(DESIRED_SERVICE, DESIRED_SERVICE_PROGRAM, &name)?;
        let after = failovers();
        Ok(if after > before {
            "ok (failover)".to_string()
        } else {
            "ok".to_string()
        })
    };

    let mut events = Vec::new();
    record(world, &mut events, "baseline", "warm FindNSM", || {
        warm_op(&warm)
    });
    record(world, &mut events, "baseline", "cold FindNSM", || {
        cold.find_nsm(&qc, &name).map(|_| "ok".to_string())
    });
    record(world, &mut events, "baseline", "Import", || {
        import_op(&importer)
    });

    // Let every cache entry expire, then open the fault windows with a
    // little seeded jitter so different seeds exercise different window
    // alignments (all still in virtual time — fully deterministic).
    world.charge_ms(f64::from(hns_core::META_TTL) * 1000.0 + 1_000.0);
    let mut rng = DetRng::new(config.seed);
    let mut jitter = || SimDuration::from_ms(rng.next_below(5_000));
    let base = world.now();
    let window = SimDuration::from_ms(WINDOW_SECS * 1000);
    let mut plan = FaultPlan::new();
    let mut last_heal = base;
    let mut open = |from: SimTime| {
        let until = from + window;
        if until > last_heal {
            last_heal = until;
        }
        (from, Some(until))
    };
    if config.crash {
        let (from, until) = open(base + jitter());
        plan.crash(tb.hosts.meta, from, until);
        let (from, until) = open(base + jitter());
        plan.crash(tb.hosts.nsm, from, until);
    }
    if config.partition {
        let (from, until) = open(base + jitter());
        plan.partition(tb.hosts.client, tb.hosts.meta, from, until);
    }
    if config.latency_spike {
        let (from, until) = open(base + jitter());
        plan.latency_spike(tb.hosts.client, tb.hosts.bind, from, until, SPIKE_MS);
    }
    world.set_faults(Some(plan));
    // Step into the windows: past the largest possible jitter plus a
    // margin, but well inside the 120 s windows.
    world.charge_ms(6_000.0);

    record(world, &mut events, "fault", "warm FindNSM", || {
        warm_op(&warm)
    });
    record(world, &mut events, "fault", "cold FindNSM", || {
        cold.find_nsm(&qc, &name).map(|_| "ok".to_string())
    });
    record(world, &mut events, "fault", "Import", || {
        import_op(&importer)
    });

    // Heal: advance past every window (the plan stays installed — closed
    // windows must be inert on their own).
    world.charge(last_heal.since(world.now()) + SimDuration::from_ms(1_000));

    record(world, &mut events, "recovery", "warm FindNSM", || {
        warm_op(&warm)
    });
    record(world, &mut events, "recovery", "cold FindNSM", || {
        cold.find_nsm(&qc, &name).map(|_| "ok".to_string())
    });
    record(world, &mut events, "recovery", "Import", || {
        import_op(&importer)
    });

    // Flush every registered snapshot-time cache export. Disabled
    // caches stay silent, so the cold (Disabled) instance no longer
    // clobbers the warm instance's `hns_cache` rows with zeros.
    world.export_all_caches();
    let snapshot = world.metrics().snapshot();
    let recovered = events
        .iter()
        .filter(|e| e.phase == "recovery")
        .all(|e| e.outcome == "ok");
    ChaosRun {
        config: *config,
        events,
        outcomes: ChaosOutcomes {
            stale_served: snapshot.counter("faults", "stale_served").unwrap_or(0),
            host_unreachable: snapshot.counter("faults", "unreachable_calls").unwrap_or(0),
            nsm_failovers: snapshot.counter("faults", "nsm_failovers").unwrap_or(0),
            recovered,
        },
        snapshot,
    }
}

impl ChaosRun {
    /// Human-readable report: the event table, the outcome summary, and
    /// the metrics snapshot.
    pub fn render(&self) -> String {
        let mut table = PlainTable::new(
            format!(
                "E-C — chaos: crash={} partition={} latency-spike={} seed={}",
                self.config.crash,
                self.config.partition,
                self.config.latency_spike,
                self.config.seed
            ),
            vec!["phase", "operation", "outcome", "took (ms)"],
        );
        for e in &self.events {
            table.push_row(vec![
                e.phase.to_string(),
                e.label.to_string(),
                e.outcome.clone(),
                format!("{:.3}", e.took_us as f64 / 1000.0),
            ]);
        }
        let mut out = table.render();
        out.push_str(&format!(
            "\nstale served: {}  unreachable calls: {}  NSM failovers: {}  recovered: {}\n\n",
            self.outcomes.stale_served,
            self.outcomes.host_unreachable,
            self.outcomes.nsm_failovers,
            self.outcomes.recovered
        ));
        out.push_str(&self.snapshot.render());
        out
    }

    /// The `hns-chaos-v1` JSON document for this run.
    pub fn to_json(&self) -> String {
        use hns_core::obs::json::string;
        let mut out = format!(
            "{{\"schema\": \"hns-chaos-v1\", \"config\": {{\"crash\": {}, \
             \"partition\": {}, \"latency_spike\": {}, \"seed\": {}}}, \"events\": [",
            self.config.crash, self.config.partition, self.config.latency_spike, self.config.seed
        );
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"phase\": {}, \"label\": {}, \"outcome\": {}, \"took_us\": {}}}",
                string(e.phase),
                string(e.label),
                string(&e.outcome),
                e.took_us
            ));
        }
        out.push_str(&format!(
            "], \"outcomes\": {{\"stale_served\": {}, \"host_unreachable\": {}, \
             \"nsm_failovers\": {}, \"recovered\": {}}}, \"metrics\": ",
            self.outcomes.stale_served,
            self.outcomes.host_unreachable,
            self.outcomes.nsm_failovers,
            self.outcomes.recovered
        ));
        out.push_str(&self.snapshot.to_json());
        out.push('}');
        out
    }
}

/// Validates an `hns-chaos-v1` document: schema tag, the three phases'
/// events, and the outcome fields the acceptance assertions read.
pub fn validate(text: &str) -> Result<(), String> {
    let v = hns_core::obs::json::parse(text).map_err(|e| format!("parse error: {e}"))?;
    if v.get("schema").and_then(|s| s.as_str()) != Some("hns-chaos-v1") {
        return Err("missing or unexpected `schema`".into());
    }
    let events = v
        .get("events")
        .and_then(|e| e.as_array())
        .ok_or("missing `events` array")?;
    if events.is_empty() {
        return Err("no events in export".into());
    }
    for phase in ["baseline", "fault", "recovery"] {
        if !events
            .iter()
            .any(|e| e.get("phase").and_then(|p| p.as_str()) == Some(phase))
        {
            return Err(format!("no `{phase}` events in export"));
        }
    }
    let outcomes = v.get("outcomes").ok_or("missing `outcomes`")?;
    for field in [
        "stale_served",
        "host_unreachable",
        "nsm_failovers",
        "recovered",
    ] {
        if outcomes.get(field).is_none() {
            return Err(format!("outcomes missing `{field}`"));
        }
    }
    if v.get("metrics").is_none() {
        return Err("missing `metrics` snapshot".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_run_degrades_gracefully_and_recovers() {
        let run = run(&ChaosConfig::default());
        let by = |phase: &str, label: &str| {
            run.events
                .iter()
                .find(|e| e.phase == phase && e.label == label)
                .unwrap_or_else(|| panic!("missing event {phase}/{label}"))
                .outcome
                .clone()
        };
        for label in ["warm FindNSM", "cold FindNSM", "Import"] {
            assert_eq!(by("baseline", label), "ok", "{label}");
            assert_eq!(by("recovery", label), "ok", "{label}");
        }
        assert_eq!(by("fault", "warm FindNSM"), "ok (stale)");
        assert!(
            by("fault", "cold FindNSM").starts_with("HostUnreachable"),
            "{}",
            by("fault", "cold FindNSM")
        );
        assert_eq!(by("fault", "Import"), "ok (failover)");
        assert!(run.outcomes.stale_served > 0);
        assert!(run.outcomes.host_unreachable > 0);
        assert_eq!(run.outcomes.nsm_failovers, 1);
        assert!(run.outcomes.recovered);
    }

    #[test]
    fn same_seed_runs_are_byte_identical() {
        let config = ChaosConfig::default();
        let a = run(&config);
        let b = run(&config);
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.render(), b.render());
    }

    #[test]
    fn json_export_parses_and_validates() {
        let run = run(&ChaosConfig::default());
        let json = run.to_json();
        validate(&json).expect("chaos JSON validates");
        let v = hns_core::obs::json::parse(&json).expect("parses");
        assert_eq!(
            v.get("outcomes")
                .and_then(|o| o.get("recovered"))
                .and_then(|r| r.as_bool()),
            Some(true)
        );
    }

    #[test]
    fn partition_alone_still_blocks_the_cold_path() {
        let run = run(&ChaosConfig {
            crash: false,
            latency_spike: false,
            ..ChaosConfig::default()
        });
        let fault_cold = run
            .events
            .iter()
            .find(|e| e.phase == "fault" && e.label == "cold FindNSM")
            .expect("event");
        assert!(
            fault_cold.outcome.starts_with("HostUnreachable"),
            "{}",
            fault_cold.outcome
        );
        // The primary NSM host is up, so Import needs no failover.
        assert_eq!(run.outcomes.nsm_failovers, 0);
        assert!(run.outcomes.recovered);
    }

    #[test]
    fn validate_rejects_malformed_documents() {
        assert!(validate("{\"schema\": \"other\"}").is_err());
        assert!(validate("{\"schema\": \"hns-chaos-v1\", \"events\": []}").is_err());
    }
}
