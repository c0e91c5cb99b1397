//! Allocation counts on the meta-query path, under the counting
//! allocator: the representation of names and struct labels is what
//! keeps a cold walk from copying the same bytes over and over.

use std::borrow::Cow;

use bindns::name::DomainName;
use bindns::rr::{RData, RType, ResourceRecord};
use bindns::zone::Zone;
use conformance::alloc::{self, CountingAlloc};
use wire::Value;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Bytes allocated on this thread while `f` runs.
fn bytes_allocated<R>(f: impl FnOnce() -> R) -> u64 {
    alloc::measure(f)
        .1
        .expect("the counting allocator is installed")
}

fn name(s: &str) -> DomainName {
    DomainName::parse(s).expect("valid name")
}

#[test]
fn a_name_is_one_shared_buffer() {
    let labels: Vec<String> = (0..12).map(|i| format!("Host-{i}")).collect();
    let text = labels.join(".") + ".HNS";
    let parsed = bytes_allocated(|| name(&text));
    // One buffer: the text plus the two reference counts, padded. A
    // second copy of the text (or a vector of labels) would double that.
    assert!(
        (text.len() as u64..=text.len() as u64 + 24).contains(&parsed),
        "parse allocated {parsed} bytes for a {}-byte name",
        text.len()
    );
    let n = name(&text);
    assert_eq!(
        bytes_allocated(|| n.clone()),
        0,
        "a clone shares the buffer"
    );
}

#[test]
fn delegation_probes_build_no_names() {
    let mut zone = Zone::new(name("hns"), 600);
    for i in 0..64 {
        zone.add(ResourceRecord::unspec(
            name(&format!("info.nsm{i}.hns")),
            600,
            b"suite=sun".to_vec(),
        ))
        .expect("add");
    }
    let deep = name("a.b.info.nsm7.hns");
    assert_eq!(bytes_allocated(|| zone.find_delegation(&deep)), 0, "no cut");

    // A cut elsewhere: every suffix of `deep` is probed, none matches.
    zone.add(ResourceRecord {
        name: name("sub.hns"),
        rtype: RType::Ns,
        ttl: 600,
        rdata: RData::Domain(name("ns.sub.hns")),
    })
    .expect("cut");
    assert_eq!(bytes_allocated(|| zone.find_delegation(&deep)), 0, "probes");
    assert!(zone.find_delegation(&name("x.sub.hns")).is_some());
}

#[test]
fn record_labels_are_not_allocated() {
    let fields = bytes_allocated(|| {
        Value::record([
            ("rcode", Value::U32(0)),
            ("ttl", Value::U32(600)),
            ("rtype", Value::U32(103)),
        ])
    });
    // The field vector is the one allocation.
    assert_eq!(
        fields,
        3 * std::mem::size_of::<(Cow<'static, str>, Value)>() as u64
    );
}
