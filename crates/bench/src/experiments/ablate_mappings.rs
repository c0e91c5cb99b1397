//! A1 — ablation: `FindNSM` as three separate mappings (the paper's
//! choice) versus collapsing `(context, query class)` directly to the NSM
//! binding.
//!
//! "While we recognize that the lookups made by FindNSM could be collapsed
//! into fewer calls ... we chose to keep these mappings separate, because
//! this allows more flexibility and requires less redundant information."
//! This ablation quantifies both sides: the collapsed variant's faster
//! cold lookup, and its redundancy/update-amplification costs.

use hns_core::cache::CacheMode;
use hns_core::name::HnsName;
use hns_core::nsm::NsmInfo;
use hns_core::query::QueryClass;
use nsms::harness::Testbed;

use crate::cells::PlainTable;

/// A collapsed meta store: one record set per (context, query class)
/// carrying everything needed to call the NSM, including its resolved
/// address.
mod collapsed {
    use super::*;
    use bindns::name::DomainName;
    use bindns::rr::{RType, ResourceRecord};
    use bindns::update::UpdateOp;
    use hns_core::error::{HnsError, HnsResult};
    use hns_core::nsm::SuiteTag;
    use hrpc::{HrpcBinding, ProgramId};
    use simnet::topology::{HostId, NetAddr};

    /// The collapsed variant of the HNS.
    pub struct CollapsedHns {
        resolver: bindns::resolver::HrpcResolver,
        origin: DomainName,
    }

    impl CollapsedHns {
        /// Creates a collapsed store over the same modified BIND.
        pub fn new(tb: &Testbed, host: HostId) -> Self {
            CollapsedHns {
                resolver: bindns::resolver::HrpcResolver::new(
                    std::sync::Arc::clone(&tb.net),
                    host,
                    tb.meta_bind.hrpc_binding,
                ),
                origin: tb.meta_origin.clone(),
            }
        }

        fn key(&self, context: &str, qc: &QueryClass) -> HnsResult<DomainName> {
            DomainName::parse(&format!(
                "flat-{}--{}.{}",
                context,
                qc.as_str(),
                self.origin
            ))
            .map_err(|e| HnsError::BadMetaRecord(e.to_string()))
        }

        /// Registers the complete, pre-resolved binding for a pair.
        pub fn register(
            &self,
            context: &str,
            qc: &QueryClass,
            host: HostId,
            program: ProgramId,
            port: u16,
        ) -> HnsResult<()> {
            let name = self.key(context, qc)?;
            // Six records, mirroring the NSM info record set plus the
            // resolved address — the redundancy is the point.
            let payloads = [
                format!("addr={}", host.0),
                format!("prog={}", program.0),
                format!("port={port}"),
                "suite=sun".to_string(),
                "ver=1".to_string(),
                "owner=hcs".to_string(),
            ];
            let records = payloads
                .iter()
                .map(|p| {
                    ResourceRecord::unspec(name.clone(), hns_core::META_TTL, p.clone().into_bytes())
                })
                .collect();
            self.resolver
                .update(&UpdateOp::Replace {
                    name,
                    rtype: RType::Unspec,
                    records,
                })
                .map_err(HnsError::Rpc)
        }

        /// The collapsed FindNSM: one meta lookup, no recursion.
        pub fn find_nsm(&self, context: &str, qc: &QueryClass) -> HnsResult<HrpcBinding> {
            let name = self.key(context, qc)?;
            let records = self
                .resolver
                .query(&name, RType::Unspec)
                .map_err(HnsError::Rpc)?;
            let mut addr = None;
            let mut prog = None;
            let mut port = None;
            for r in &records {
                if let bindns::rr::RData::Opaque(bytes) = &r.rdata {
                    let s = String::from_utf8_lossy(bytes).to_string();
                    if let Some((k, v)) = s.split_once('=') {
                        match k {
                            "addr" => addr = v.parse::<u32>().ok(),
                            "prog" => prog = v.parse::<u32>().ok(),
                            "port" => port = v.parse::<u16>().ok(),
                            _ => {}
                        }
                    }
                }
            }
            let (addr, prog, port) = match (addr, prog, port) {
                (Some(a), Some(p), Some(q)) => (a, p, q),
                _ => return Err(HnsError::BadMetaRecord("incomplete flat record".into())),
            };
            let host = HostId(addr);
            Ok(HrpcBinding {
                host,
                addr: NetAddr::of(host),
                program: ProgramId(prog),
                port,
                components: SuiteTag::Sun.components(port),
            })
        }
    }
}

/// Redundancy accounting for `c` contexts, `q` query classes, `n` NSMs.
///
/// Separate: one record per context, one per (name service, query class)
/// pair, six per NSM. Collapsed: six records per (context, query class).
pub fn record_counts(contexts: usize, query_classes: usize, nsms: usize) -> (usize, usize) {
    let name_services = 2;
    let separate = contexts + name_services * query_classes + NsmInfo::RECORDS * nsms;
    let collapsed = contexts * query_classes * NsmInfo::RECORDS;
    (separate, collapsed)
}

/// Records that must be rewritten when one NSM moves host.
pub fn update_amplification(contexts_per_ns: usize) -> (usize, usize) {
    // Separate: rewrite that NSM's six-record info set once.
    // Collapsed: rewrite every (context, query class) entry naming it.
    (NsmInfo::RECORDS, contexts_per_ns * NsmInfo::RECORDS)
}

/// Runs the ablation.
pub fn run() -> PlainTable {
    let tb = Testbed::build();
    tb.deploy_binding_nsms(tb.hosts.nsm, CacheMode::Marshalled);
    let qc = QueryClass::hrpc_binding();

    // Separate (the real HNS), cold.
    let hns = tb.make_hns(tb.hosts.client, CacheMode::Marshalled);
    let name = HnsName::new(tb.ctx_bind(), "fiji.cs.washington.edu").expect("name");
    let (r, separate_ms, separate_calls) = tb.world.measure(|| hns.find_nsm(&qc, &name));
    let nsm_binding = r.expect("separate find");

    // Collapsed, cold.
    let flat = collapsed::CollapsedHns::new(&tb, tb.hosts.client);
    flat.register(
        "bind-uw",
        &qc,
        nsm_binding.host,
        nsm_binding.program,
        nsm_binding.port,
    )
    .expect("flat register");
    let (r, collapsed_ms, collapsed_calls) = tb.world.measure(|| flat.find_nsm("bind-uw", &qc));
    let flat_binding = r.expect("collapsed find");
    assert_eq!(flat_binding.host, nsm_binding.host, "variants must agree");

    let (sep_records, col_records) = record_counts(8, 5, 10);
    let (sep_update, col_update) = update_amplification(8);

    let mut table = PlainTable::new(
        "Ablation A1 — separate 3-mapping FindNSM vs collapsed 1-mapping variant",
        vec!["metric", "separate (paper's choice)", "collapsed"],
    );
    table.push_row(vec![
        "cold lookup (ms)".into(),
        format!("{:.0}", separate_ms.as_ms_f64()),
        format!("{:.0}", collapsed_ms.as_ms_f64()),
    ]);
    table.push_row(vec![
        "cold remote calls".into(),
        separate_calls.remote_calls.to_string(),
        collapsed_calls.remote_calls.to_string(),
    ]);
    table.push_row(vec![
        "meta records (8 ctx x 5 qc x 10 NSMs)".into(),
        sep_records.to_string(),
        col_records.to_string(),
    ]);
    table.push_row(vec![
        "records rewritten when one NSM moves".into(),
        sep_update.to_string(),
        col_update.to_string(),
    ]);
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collapsed_is_faster_cold_but_more_redundant() {
        let table = run();
        let cold_sep: f64 = table.rows[0][1].parse().expect("number");
        let cold_col: f64 = table.rows[0][2].parse().expect("number");
        assert!(
            cold_col * 3.0 < cold_sep,
            "collapsed {cold_col} vs separate {cold_sep}"
        );
        let rec_sep: usize = table.rows[2][1].parse().expect("number");
        let rec_col: usize = table.rows[2][2].parse().expect("number");
        assert!(
            rec_col > 2 * rec_sep,
            "collapsed must store more: {rec_col} vs {rec_sep}"
        );
        let upd_sep: usize = table.rows[3][1].parse().expect("number");
        let upd_col: usize = table.rows[3][2].parse().expect("number");
        assert!(upd_col > upd_sep, "collapsed must rewrite more on moves");
    }

    #[test]
    fn record_count_formulas() {
        let (sep, col) = record_counts(2, 1, 2);
        assert_eq!(sep, 2 + 2 + 12);
        assert_eq!(col, 12);
    }
}
