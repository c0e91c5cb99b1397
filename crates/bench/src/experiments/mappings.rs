//! E8 — the structure of `FindNSM`: three separate mappings, six remote
//! data mappings cold, recursion broken by linked host-address NSMs.

use hns_core::cache::CacheMode;
use hns_core::name::HnsName;
use hns_core::query::QueryClass;
use nsms::harness::Testbed;

use crate::cells::PlainTable;

/// Structural counters for one FindNSM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MappingCounts {
    /// Remote calls made.
    pub remote_calls: u64,
    /// Underlying name-service lookups served.
    pub ns_lookups: u64,
}

/// Measures cold and warm FindNSM structure.
pub fn counts() -> (MappingCounts, MappingCounts) {
    let tb = Testbed::build();
    tb.deploy_binding_nsms(tb.hosts.nsm, CacheMode::Marshalled);
    let hns = tb.make_hns(tb.hosts.client, CacheMode::Marshalled);
    let name = HnsName::new(tb.ctx_bind(), "fiji.cs.washington.edu").expect("name");
    let qc = QueryClass::hrpc_binding();
    let (r, _, cold) = tb.world.measure(|| hns.find_nsm(&qc, &name));
    r.expect("cold");
    let (r, _, warm) = tb.world.measure(|| hns.find_nsm(&qc, &name));
    r.expect("warm");
    (
        MappingCounts {
            remote_calls: cold.remote_calls,
            ns_lookups: cold.ns_lookups,
        },
        MappingCounts {
            remote_calls: warm.remote_calls,
            ns_lookups: warm.ns_lookups,
        },
    )
}

/// Runs the experiment and renders the structural evidence.
pub fn run() -> PlainTable {
    let (cold, warm) = counts();
    let mut table = PlainTable::new(
        "FindNSM structure (paper: six remote data mappings cold, all cached warm)",
        vec!["state", "remote calls", "name-service lookups"],
    );
    table.push_row(vec![
        "cold".into(),
        cold.remote_calls.to_string(),
        cold.ns_lookups.to_string(),
    ]);
    table.push_row(vec![
        "warm".into(),
        warm.remote_calls.to_string(),
        warm.ns_lookups.to_string(),
    ]);
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_cold_zero_warm() {
        let (cold, warm) = counts();
        assert_eq!(cold.remote_calls, 6);
        assert_eq!(warm.remote_calls, 0);
        assert_eq!(warm.ns_lookups, 0);
        // Five of the six cold mappings hit the meta BIND; the sixth is
        // the public BIND lookup by the linked host-address NSM.
        assert_eq!(cold.ns_lookups, 6);
    }
}
