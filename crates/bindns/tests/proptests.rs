//! Property-based tests on the name-service invariants.

use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use proptest::prelude::*;

use bindns::error::NsError;
use bindns::name::{DomainName, MAX_LABEL, MAX_NAME};
use bindns::rr::{RData, RType, ResourceRecord};
use bindns::update::UpdateOp;
use bindns::zone::Zone;
use simnet::topology::{HostId, NetAddr};

fn arb_label() -> impl Strategy<Value = String> {
    "[a-z0-9][a-z0-9_-]{0,12}"
}

fn arb_name_under(origin: &'static str) -> impl Strategy<Value = DomainName> {
    proptest::collection::vec(arb_label(), 1..3).prop_map(move |labels| {
        DomainName::parse(&format!("{}.{origin}", labels.join("."))).expect("valid")
    })
}

/// Reference model: the earlier representation of a name, its lowercase
/// labels in a `Vec<String>` with derived `Eq`, `Ord` and `Hash`, and the
/// parser that built it.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct ModelName(Vec<String>);

impl ModelName {
    fn parse(s: &str) -> Result<ModelName, NsError> {
        let bad = |why: String| Err(NsError::BadName(why));
        let trimmed = s.strip_suffix('.').unwrap_or(s);
        if trimmed.is_empty() {
            return Ok(ModelName(Vec::new()));
        }
        if trimmed.len() > MAX_NAME {
            return bad(format!("name too long ({} bytes)", trimmed.len()));
        }
        let mut labels = Vec::new();
        for label in trimmed.split('.') {
            if label.is_empty() {
                return bad(format!("empty label in `{s}`"));
            }
            if label.len() > MAX_LABEL {
                return bad(format!("label `{label}` too long"));
            }
            if !label
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_')
            {
                return bad(format!("bad character in label `{label}`"));
            }
            labels.push(label.to_ascii_lowercase());
        }
        Ok(ModelName(labels))
    }
}

fn hash_of(value: &impl Hash) -> u64 {
    let mut hasher = DefaultHasher::new();
    value.hash(&mut hasher);
    hasher.finish()
}

/// Pairs of names over a tiny alphabet, often related: independent, one
/// beneath the other, equal up to case, or sharing a text prefix that
/// continues with a `-`, a `_`, a digit or a dot (`a` vs `a-b` vs `a.b`).
fn arb_close_pair() -> impl Strategy<Value = (String, String)> {
    let labels = || proptest::collection::vec("[aAb0_-]{1,3}", 1..4);
    (labels(), labels(), 0u8..5).prop_map(|(a, b, relation)| {
        let joined = a.join(".");
        let other = match relation {
            0 => b.join("."),
            1 => format!("{}.{joined}", b.join(".")),
            2 => joined.to_ascii_uppercase(),
            3 => format!("{}{}", a[0], b.join(".")),
            _ => format!("{}.{}", a[0], b.join(".")),
        };
        (joined, other)
    })
}

/// Dotted inputs around every parse limit: empty labels, labels around
/// 63 bytes, names around 255 bytes, bad bytes, trailing dots, the root.
fn arb_parse_input() -> impl Strategy<Value = String> {
    let label = prop_oneof![
        "[a-zA-Z0-9_-]{0,8}",
        "[a-zA-Z0-9_-]{1,8}",
        "[a-z]{60,66}",
        "[a-z]{1,4}[ !é/][a-z]{0,4}",
    ];
    let dotted = (proptest::collection::vec(label, 0..6), "[.]{0,2}")
        .prop_map(|(labels, dots)| labels.join(".") + &dots)
        .boxed();
    prop_oneof![
        dotted.clone(),
        dotted,
        (1usize..6).prop_map(|n| vec!["a".repeat(MAX_LABEL); n].join(".")),
        (240usize..270).prop_map(|n| "ab.".repeat(n / 3) + &"c".repeat(n % 3 + 1)),
        "[ -~]{0,40}",
    ]
}

fn arb_rdata() -> impl Strategy<Value = RData> {
    prop_oneof![
        (0u32..256).prop_map(|h| RData::Addr(NetAddr::of(HostId(h)))),
        "[ -~]{0,64}".prop_map(|t| RData::Text(t.into())),
        proptest::collection::vec(any::<u8>(), 0..64).prop_map(|b| RData::Opaque(b.into())),
    ]
}

fn rtype_for(rdata: &RData) -> RType {
    match rdata {
        RData::Addr(_) => RType::A,
        RData::Text(_) => RType::Txt,
        RData::Opaque(_) => RType::Unspec,
        RData::Domain(_) => RType::Cname,
        RData::Soa { .. } => RType::Soa,
    }
}

proptest! {
    #[test]
    fn rdata_bytes_roundtrip(rdata in arb_rdata()) {
        let bytes = rdata.to_bytes().expect("encode");
        prop_assert_eq!(RData::from_bytes(&bytes).expect("decode"), rdata);
    }

    #[test]
    fn rdata_decoder_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
        let _ = RData::from_bytes(&bytes);
    }

    #[test]
    fn record_value_roundtrip(name in arb_name_under("cs.washington.edu"), ttl in 0u32..1_000_000, rdata in arb_rdata()) {
        let rr = ResourceRecord { name, rtype: rtype_for(&rdata), ttl, rdata };
        let v = rr.to_value().expect("encode");
        prop_assert_eq!(ResourceRecord::from_value(&v).expect("decode"), rr);
    }

    #[test]
    fn zone_serial_is_strictly_monotone_under_mutation(
        records in proptest::collection::vec(
            (proptest::collection::vec(arb_label(), 1..3), arb_rdata()),
            1..20,
        )
    ) {
        let mut zone = Zone::new(DomainName::parse("z").expect("origin"), 60);
        let mut last_serial = zone.serial();
        for (labels, rdata) in records {
            let name = DomainName::parse(&format!("{}.z", labels.join("."))).expect("valid");
            let rr = ResourceRecord { name, rtype: rtype_for(&rdata), ttl: 60, rdata };
            if zone.add(rr).is_ok() {
                prop_assert!(zone.serial() > last_serial, "serial must advance");
                last_serial = zone.serial();
            }
        }
    }

    #[test]
    fn zone_lookup_finds_exactly_what_was_added(
        entries in proptest::collection::btree_map(
            proptest::collection::vec(arb_label(), 1..3),
            0u32..64,
            1..12,
        )
    ) {
        let mut zone = Zone::new(DomainName::parse("z").expect("origin"), 60);
        for (labels, host) in &entries {
            let name = DomainName::parse(&format!("{}.z", labels.join("."))).expect("valid");
            zone.add(ResourceRecord::a(name, 60, NetAddr::of(HostId(*host)))).expect("add");
        }
        prop_assert_eq!(zone.record_count(), entries.len());
        for (labels, host) in &entries {
            let name = DomainName::parse(&format!("{}.z", labels.join("."))).expect("valid");
            let found = zone.lookup(&name, RType::A).expect("present");
            prop_assert_eq!(found.len(), 1);
            prop_assert_eq!(&found[0].rdata, &RData::Addr(NetAddr::of(HostId(*host))));
        }
    }

    #[test]
    fn zone_transfer_preserves_every_record(
        entries in proptest::collection::btree_map(
            proptest::collection::vec(arb_label(), 1..3),
            arb_rdata(),
            1..10,
        )
    ) {
        let mut zone = Zone::new(DomainName::parse("z").expect("origin"), 60);
        for (labels, rdata) in &entries {
            let name = DomainName::parse(&format!("{}.z", labels.join("."))).expect("valid");
            let rr = ResourceRecord { name, rtype: rtype_for(rdata), ttl: 60, rdata: rdata.clone() };
            zone.add(rr).expect("add");
        }
        // AXFR payload rebuilt into a fresh zone is equivalent.
        let mut copy = Zone::new(DomainName::parse("z").expect("origin"), 60);
        for rr in zone.all_records() {
            copy.add(rr).expect("copy");
        }
        prop_assert_eq!(copy.record_count(), zone.record_count());
        prop_assert_eq!(copy.size_bytes(), zone.size_bytes());
        for (labels, rdata) in &entries {
            let name = DomainName::parse(&format!("{}.z", labels.join("."))).expect("valid");
            prop_assert!(copy.lookup(&name, rtype_for(rdata)).is_ok());
        }
    }

    #[test]
    fn update_ops_value_roundtrip(
        labels in proptest::collection::vec(arb_label(), 1..3),
        rdata in arb_rdata(),
    ) {
        let name = DomainName::parse(&format!("{}.z", labels.join("."))).expect("valid");
        let rr = ResourceRecord { name: name.clone(), rtype: rtype_for(&rdata), ttl: 60, rdata };
        for op in [
            UpdateOp::Add(rr.clone()),
            UpdateOp::Delete { name: name.clone(), rtype: rr.rtype },
            UpdateOp::Replace { name, rtype: rr.rtype, records: vec![rr.clone()] },
        ] {
            let v = op.to_value().expect("encode");
            prop_assert_eq!(UpdateOp::from_value(&v).expect("decode"), op);
        }
    }

    #[test]
    fn add_then_remove_restores_absence(
        labels in proptest::collection::vec(arb_label(), 1..3),
        rdata in arb_rdata(),
    ) {
        let mut zone = Zone::new(DomainName::parse("z").expect("origin"), 60);
        let name = DomainName::parse(&format!("{}.z", labels.join("."))).expect("valid");
        let rtype = rtype_for(&rdata);
        let rr = ResourceRecord { name: name.clone(), rtype, ttl: 60, rdata };
        zone.add(rr).expect("add");
        prop_assert_eq!(zone.remove(&name, rtype), 1);
        prop_assert!(zone.lookup(&name, rtype).is_err());
        prop_assert_eq!(zone.record_count(), 0);
    }

    #[test]
    fn domain_parse_never_panics(s in "[ -~]{0,80}") {
        let _ = DomainName::parse(&s);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn name_order_equality_and_hash_match_the_label_model(pair in arb_close_pair()) {
        let (a, b) = pair;
        let (na, nb) = (DomainName::parse(&a).expect("valid"), DomainName::parse(&b).expect("valid"));
        let (ma, mb) = (ModelName::parse(&a).expect("valid"), ModelName::parse(&b).expect("valid"));
        prop_assert_eq!(na.cmp(&nb), ma.cmp(&mb), "{} vs {}", a, b);
        prop_assert_eq!(na == nb, ma == mb);
        if na == nb {
            prop_assert_eq!(hash_of(&na), hash_of(&nb));
        }
        prop_assert_eq!(na.cmp(&na), Ordering::Equal);
        prop_assert_eq!(na.labels().collect::<Vec<_>>(), ma.0.iter().map(String::as_str).collect::<Vec<_>>());
        prop_assert_eq!(na.depth(), ma.0.len());
        prop_assert_eq!(na.is_within(&nb), ma.0.ends_with(&mb.0));
        prop_assert_eq!(nb.is_within(&na), mb.0.ends_with(&ma.0));
    }

    #[test]
    fn name_parse_accepts_and_rejects_like_the_label_model(s in arb_parse_input()) {
        match (DomainName::parse(&s), ModelName::parse(&s)) {
            (Ok(name), Ok(model)) => {
                prop_assert_eq!(name.to_string(), if model.0.is_empty() { ".".to_string() } else { model.0.join(".") });
            }
            (Err(err), Err(model_err)) => prop_assert_eq!(err, model_err, "{:?}", s),
            (got, want) => prop_assert!(false, "{:?}: {:?} but the model gives {:?}", s, got, want),
        }
    }

    #[test]
    fn adopting_shared_text_matches_parse(
        a in arb_adopt_input(),
        b in arb_adopt_input(),
    ) {
        let (shared_a, shared_b): (Arc<str>, Arc<str>) = (a.as_str().into(), b.as_str().into());
        prop_assert_eq!(DomainName::check(&a), DomainName::parse(&a).map(|_| ()));
        match (DomainName::adopt(&shared_a), DomainName::parse(&a)) {
            (Ok(adopted), Ok(parsed)) => {
                prop_assert_eq!(adopted.as_str(), parsed.as_str());
                prop_assert_eq!(&adopted, &parsed);
                prop_assert_eq!(adopted.cmp(&parsed), Ordering::Equal);
                prop_assert_eq!(hash_of(&adopted), hash_of(&parsed));
                // Canonical text is taken over; anything else is copied.
                prop_assert_eq!(
                    Arc::ptr_eq(&adopted.shared_text(), &shared_a),
                    a == parsed.as_str(),
                    "{:?}", a
                );
                if let (Ok(other_adopted), Ok(other_parsed)) =
                    (DomainName::adopt(&shared_b), DomainName::parse(&b))
                {
                    prop_assert_eq!(adopted.cmp(&other_adopted), parsed.cmp(&other_parsed));
                    prop_assert_eq!(adopted == other_adopted, parsed == other_parsed);
                }
            }
            (Err(err), Err(parse_err)) => prop_assert_eq!(err, parse_err, "{:?}", a),
            (got, want) => prop_assert!(false, "{:?}: adopt gives {:?}, parse {:?}", a, got, want),
        }
    }
}

/// Texts for [`DomainName::adopt`]: the parse-limit inputs as they come
/// (upper case, trailing dots, bad labels, the root) and in lower case,
/// plus related lowercase pairs, so canonical text is common.
fn arb_adopt_input() -> impl Strategy<Value = String> {
    prop_oneof![
        arb_parse_input(),
        arb_parse_input().prop_map(|s| s.to_ascii_lowercase()),
        arb_close_pair().prop_map(|(a, b)| format!("{a}.{b}").to_ascii_lowercase()),
        Just(".".to_string()),
        Just(String::new()),
    ]
}
