//! Property-based tests for the HNS core.

use proptest::prelude::*;

use bindns::message::{Answer, AnswerView};
use bindns::name::DomainName;
use hns_core::analysis::{Eq1Inputs, PreloadModel};
use hns_core::cache::{CacheMode, HnsCache, MetaKey};
use hns_core::meta::{meta_key_at, records_to_fetched, views_to_fetched};
use hns_core::name::{Context, HnsName, NameMapping};
use hns_core::nsm::{NsmInfo, SuiteTag};
use hns_core::query::QueryClass;
use hrpc::ProgramId;
use wire::Value;

fn arb_suite() -> impl Strategy<Value = SuiteTag> {
    prop_oneof![
        Just(SuiteTag::Sun),
        Just(SuiteTag::Courier),
        Just(SuiteTag::RawTcp),
        Just(SuiteTag::RawUdp),
    ]
}

/// The meta-key derivation as a dotted string: sanitize each part into a
/// label (lowercase ASCII alphanumerics, `-` and `_`, anything else `-`,
/// at most 60 characters, `x` when empty), join with dots, append the
/// origin, and parse the result. [`meta_key_at`] must agree with it.
fn joined_meta_key(origin: &DomainName, parts: &[&str]) -> Option<DomainName> {
    let label = |s: &str| {
        let mut out: String = s
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                    c.to_ascii_lowercase()
                } else {
                    '-'
                }
            })
            .collect();
        out.truncate(60);
        if out.is_empty() {
            out.push('x');
        }
        out
    };
    let mut name = parts.iter().map(|p| label(p)).collect::<Vec<_>>().join(".");
    name.push('.');
    name.push_str(&origin.to_string());
    DomainName::parse(&name).ok()
}

#[test]
fn meta_keys_over_255_bytes_are_rejected() {
    let origin = DomainName::parse("hns").expect("origin");
    let sixty = "a".repeat(60);
    let sixty = sixty.as_str();
    // Five 60-byte labels plus `hns` and six dots: 309 bytes.
    assert!(meta_key_at(&origin, &[sixty; 5]).is_err());
    // 4 x 60 + 7 + 3 bytes of labels and 5 dots: exactly 255 bytes.
    let at_limit = meta_key_at(&origin, &[sixty, sixty, sixty, sixty, "bbbbbbb"])
        .expect("255 bytes is a legal name");
    assert_eq!(at_limit.wire_len(), 255);
    assert!(meta_key_at(&origin, &[sixty, sixty, sixty, sixty, "bbbbbbbb"]).is_err());
}

/// A record value as a meta reply may carry it: mostly well-formed
/// `UNSPEC` payloads under one owner, but also other rdata (an address, a
/// domain name), payloads that are not UTF-8, malformed rdata, owners
/// that are not canonical or not names, and missing or mistyped fields.
fn arb_reply_record() -> impl Strategy<Value = Value> {
    let owner = (0u8..24, "[ -~]{0,12}").prop_map(|(pick, any)| match pick {
        0 => "Info.NSM-bind.hns.".to_string(),
        1 => "a..b".to_string(),
        2 => ".".to_string(),
        3 => any,
        _ => "info.nsm-bind.hns".to_string(),
    });
    let rdata = (0u8..32, "[ -~]{0,16}").prop_map(|(pick, text)| match pick {
        0 => vec![3, 0xFF, 0xFE],
        1 => vec![0, 0, 0, 0, 7],
        2 => b"\x01ns.hns".to_vec(),
        3 => vec![0, 1],
        4 => vec![9, 0],
        5 => Vec::new(),
        6 => vec![1, b'a', b'.', b'.', b'b'],
        _ => [&[3u8][..], text.as_bytes()].concat(),
    });
    let rtype = (0u8..24).prop_map(|pick| match pick {
        0 => 1u32,
        1 => 999,
        _ => 103,
    });
    (owner, rtype, 0u32..1000, rdata, 0u8..32).prop_map(|(owner, rtype, ttl, rdata, shape)| {
        let mut fields = vec![
            ("name", Value::str(owner)),
            ("rtype", Value::U32(rtype)),
            ("ttl", Value::U32(ttl)),
            ("rdata", Value::bytes(rdata)),
        ];
        match shape {
            0 => {
                fields.remove(2);
            }
            1 => fields[3].1 = Value::U32(0),
            2 => fields[0].1 = Value::U32(0),
            _ => {}
        }
        Value::record(fields)
    })
}

/// A QUERY reply: an outcome code (now and then an unknown one) and a
/// few records, or a reply missing its record list.
fn arb_meta_reply() -> impl Strategy<Value = Value> {
    let rcode = (0u32..20).prop_map(|pick| pick.saturating_sub(11));
    let records = proptest::collection::vec(arb_reply_record(), 0..5);
    (rcode, records, 0u8..12).prop_map(|(rcode, records, shape)| match shape {
        0 => Value::record([("rcode", Value::U32(rcode))]),
        _ => Value::record([
            ("rcode", Value::U32(rcode)),
            ("answers", Value::List(records)),
        ]),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn payload_reads_match_decoding_the_answer(reply in arb_meta_reply()) {
        // The meta store reads payloads straight from the reply; decoding
        // the answer first and then its records must give the same
        // `Fetched`, and the same error at the same stage.
        let decoded = Answer::from_value(&reply).map(|answer| records_to_fetched(answer.records));
        let viewed = AnswerView::read(&reply).and_then(|view| views_to_fetched(view.records()));
        prop_assert_eq!(viewed, decoded);
    }
}

proptest! {
    #[test]
    fn meta_key_at_matches_the_joined_derivation(
        parts in proptest::collection::vec("[a-zA-Z0-9._ -éß日本!]{0,70}", 0..6),
        origin in prop_oneof![Just("hns"), Just("meta.HNS.example")],
    ) {
        let origin = DomainName::parse(origin).expect("origin");
        let parts: Vec<&str> = parts.iter().map(String::as_str).collect();
        prop_assert_eq!(meta_key_at(&origin, &parts).ok(), joined_meta_key(&origin, &parts));
    }

    #[test]
    fn hns_name_display_parse_roundtrip(
        ctx in "[a-zA-Z][a-zA-Z0-9 ._-]{0,20}",
        individual in "[a-zA-Z0-9:. _-]{1,40}",
    ) {
        let context = Context::new(&ctx).expect("no bang, nonempty");
        let name = HnsName::new(context, individual).expect("name");
        let reparsed = HnsName::parse(&name.to_string()).expect("parse");
        prop_assert_eq!(name, reparsed);
    }

    #[test]
    fn nsm_info_records_roundtrip(
        nsm in "[a-z][a-z0-9-]{0,24}",
        host in "[a-z0-9.]{1,32}",
        ctx in "[a-z][a-z0-9-]{0,16}",
        program in any::<u32>(),
        port in any::<u16>(),
        suite in arb_suite(),
        version in any::<u32>(),
        owner in "[a-z0-9 -]{0,16}",
    ) {
        let info = NsmInfo {
            nsm_name: nsm.clone(),
            host_name: host,
            host_context: Context::new(&ctx).expect("ctx"),
            program: ProgramId(program),
            port,
            suite,
            version,
            owner,
        };
        let records = info.to_records();
        prop_assert_eq!(records.len(), NsmInfo::RECORDS);
        let back = NsmInfo::from_records(&nsm, &records).expect("decode");
        prop_assert_eq!(back, info);
    }

    #[test]
    fn query_classes_normalize(name in "[a-zA-Z][a-zA-Z0-9]{0,24}") {
        let a = QueryClass::new(&name);
        let b = QueryClass::new(name.to_ascii_uppercase());
        prop_assert_eq!(a, b);
    }

    #[test]
    fn cache_insert_get_identity(
        payloads in proptest::collection::vec("[ -~]{0,32}", 0..8),
        rrs in 1usize..8,
        ttl in 1u32..100_000,
    ) {
        let world = simnet::World::paper();
        let value = Value::List(payloads.iter().map(Value::str).collect());
        for mode in [CacheMode::Marshalled, CacheMode::Demarshalled] {
            let cache = HnsCache::new(mode);
            let key = MetaKey::host_addr("NS", "host");
            cache.insert(&world, key, &value, rrs, ttl);
            prop_assert_eq!(cache.get(&world, &key), Some(value.clone()));
        }
    }

    #[test]
    fn marshalled_hits_never_beat_demarshalled(rrs in 1usize..10) {
        let world = simnet::World::paper();
        let value = Value::str("payload");
        let measure = |mode| {
            let cache = HnsCache::new(mode);
            let key = MetaKey::host_addr("NS", "h");
            cache.insert(&world, key, &value, rrs, 1000);
            let (_, took, _) = world.measure(|| cache.get(&world, &key));
            took.as_ms_f64()
        };
        prop_assert!(measure(CacheMode::Marshalled) > measure(CacheMode::Demarshalled));
    }

    #[test]
    fn eq1_threshold_is_the_indifference_point(
        remote in 1.0f64..100.0,
        hit in 1.0f64..200.0,
        extra_miss in 1.0f64..500.0,
        p in 0.0f64..0.5,
    ) {
        let inputs = Eq1Inputs { remote_call_ms: remote, hit_ms: hit, miss_ms: hit + extra_miss };
        let q = inputs.remote_threshold().expect("miss > hit");
        if p + q <= 1.0 {
            let local = inputs.local_cost(p);
            let remote_cost = inputs.remote_cost(p, q);
            // At exactly q, the two placements cost the same.
            prop_assert!((remote_cost - local).abs() < 1e-6, "{} vs {}", remote_cost, local);
        }
    }

    #[test]
    fn preload_break_even_is_consistent(
        preload in 1.0f64..2000.0,
        warm in 1.0f64..100.0,
        extra_cold in 1.0f64..1000.0,
    ) {
        let model = PreloadModel { preload_ms: preload, cold_ms: warm + extra_cold, warm_ms: warm };
        let k = model.break_even_calls().expect("cold > warm");
        prop_assert!(model.with_preload(k) <= model.without_preload(k));
        if k > 1 {
            prop_assert!(model.with_preload(k - 1) > model.without_preload(k - 1));
        }
    }

    #[test]
    fn sharded_cache_matches_single_map_model(
        ops in proptest::collection::vec(
            (0u8..3, 0usize..6, any::<u32>(), any::<bool>()),
            1..40,
        ),
    ) {
        // The lock-striped cache must be observationally identical to a
        // single-map model: same hit/miss answers, same entry count.
        // Expired entries are hidden from normal reads but *retained* as
        // the serve-stale fallback, so the model never removes them
        // either. TTLs are either 1 s (expired by any 2 s advance, with
        // a margin far exceeding the sub-ms cost charges lookups add) or
        // 10_000 s (never expires in-sequence).
        use simnet::time::SimDuration;
        let world = simnet::World::paper();
        let cache = HnsCache::new(CacheMode::Demarshalled);
        let key_of = |k: usize| MetaKey::host_addr("NS", &format!("host-{k}"));
        let mut model: std::collections::HashMap<usize, (u32, simnet::time::SimTime)> =
            std::collections::HashMap::new();
        for (op, k, v, long_ttl) in ops {
            match op {
                0 => {
                    let ttl_secs = if long_ttl { 10_000 } else { 1 };
                    let expires = world.now() + SimDuration::from_ms(u64::from(ttl_secs) * 1000);
                    cache.insert(&world, key_of(k), &Value::U32(v), 1, ttl_secs);
                    model.insert(k, (v, expires));
                }
                1 => {
                    let expected = match model.get(&k) {
                        Some((v, exp)) if *exp > world.now() => Some(Value::U32(*v)),
                        // Expired: hidden, but retained for serve-stale.
                        _ => None,
                    };
                    prop_assert_eq!(cache.get(&world, &key_of(k)), expected);
                }
                _ => world.charge_ms(2_000.0),
            }
        }
        prop_assert_eq!(cache.len(), model.len());
    }

    #[test]
    fn mapping_decode_never_panics(s in "[ -~]{0,40}") {
        let _ = NameMapping::decode(&s);
    }

    #[test]
    fn context_rejects_bang_everywhere(s in "[a-z]{0,8}", t in "[a-z]{0,8}") {
        let with_bang = format!("{s}!{t}");
        prop_assert!(Context::new(&with_bang).is_err());
    }
}
