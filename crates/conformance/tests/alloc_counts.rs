//! Allocation counts on the meta-query path, under the counting
//! allocator: the representation of names and struct labels is what
//! keeps a cold walk from copying the same bytes over and over.

use std::borrow::Cow;

use bindns::message::Question;
use bindns::name::DomainName;
use bindns::rr::{RData, RType, ResourceRecord};
use bindns::zone::Zone;
use conformance::alloc::{self, Allocs, CountingAlloc};
use hns_core::cache::CacheMode;
use hns_core::name::HnsName;
use hns_core::query::QueryClass;
use nsms::harness::Testbed;
use wire::Value;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Bytes allocated on this thread while `f` runs.
fn bytes_allocated<R>(f: impl FnOnce() -> R) -> u64 {
    alloc::measure(f)
        .1
        .expect("the counting allocator is installed")
}

/// Allocation calls and bytes on this thread while `f` runs.
fn allocs<R>(f: impl FnOnce() -> R) -> Allocs {
    alloc::measure_allocs(f)
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

#[test]
fn wire_leaves_clone_without_allocating() {
    let text = Value::str("info.nsm-hrpcbinding-bind.hns");
    let bytes = Value::bytes(vec![7u8; 200]);
    assert_eq!(bytes_allocated(|| text.clone()), 0);
    assert_eq!(bytes_allocated(|| bytes.clone()), 0);
}

#[test]
fn decoded_leaves_are_one_allocation_each() {
    let text = "fileservice=fiji.cs.washington.edu;root=/usr/src";
    for value in [Value::str(text), Value::bytes(text.as_bytes())] {
        let xdr = wire::xdr::encode(&value).expect("encode");
        let courier = wire::courier::encode(&value).expect("encode");
        for decode in [wire::xdr::decode(&xdr), wire::courier::decode(&courier)] {
            assert_eq!(decode.as_ref(), Ok(&value));
        }
        // The shared buffer, built straight from the input: no
        // intermediate `String` or `Vec`.
        assert_eq!(allocs(|| wire::xdr::decode(&xdr)).calls, 1, "{value:?}");
        assert_eq!(allocs(|| wire::courier::decode(&courier)).calls, 1);
    }
}

#[test]
fn rdata_serializes_into_one_exact_buffer() {
    let header = 2 * std::mem::size_of::<usize>() as u64;
    for rdata in [
        RData::Opaque(
            b"host=june.cs.washington.edu;hostctx=hns-hosts"
                .to_vec()
                .into(),
        ),
        RData::Text("VAX-II / Unix".into()),
        RData::Domain(name("ns.cs.washington.edu")),
        RData::Soa {
            primary: name("ns.cs.washington.edu"),
            serial: 7,
            default_ttl: 3600,
        },
    ] {
        let used = allocs(|| rdata.to_bytes().expect("fits"));
        assert_eq!(
            used,
            Allocs {
                calls: 1,
                // The two reference counts, then the bytes, padded.
                bytes: (header + rdata.wire_len() as u64).next_multiple_of(header / 2)
            },
            "{rdata:?}"
        );
        // Cloning a record's payload out of a zone copies nothing.
        assert_eq!(bytes_allocated(|| rdata.clone()), 0);
    }
}

#[test]
fn a_question_value_shares_the_name() {
    let question = Question::new(name("ctx.hrpcbinding-bind.hns"), RType::Unspec);
    // The field vector is the one allocation: the name's text is shared.
    assert_eq!(
        bytes_allocated(|| question.to_value()),
        2 * std::mem::size_of::<(Cow<'static, str>, Value)>() as u64
    );
    let value = question.to_value();
    let back = Question::from_value(&value).expect("decode");
    assert_eq!(back, question);
    assert_eq!(bytes_allocated(|| Question::from_value(&value)), 0);
}

#[test]
fn a_cold_find_nsm_stays_under_its_allocation_budget() {
    let tb = Testbed::build();
    tb.deploy_binding_nsms(tb.hosts.nsm, CacheMode::Disabled);
    let hns = tb.make_hns(tb.hosts.client, CacheMode::Disabled);
    let name = HnsName::new(tb.ctx_bind(), "fiji.cs.washington.edu").expect("name");
    let qc = QueryClass::hrpc_binding();
    // The first walk resolves lazily created metric handles; every later
    // one is the steady cold walk: six meta mappings, each a remote call.
    hns.find_nsm(&qc, &name).expect("first walk");
    let walk = allocs(|| hns.find_nsm(&qc, &name).expect("cold walk"));
    // Measured at 82 calls and 6,286 bytes; before names, payloads and
    // wire leaves were shared, the same walk made 154 calls (10.5 KB).
    assert!(
        walk.calls <= 84 && walk.bytes <= 6_500,
        "a cold FindNSM made {walk:?}"
    );
}
