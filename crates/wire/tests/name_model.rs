//! `Name` against a model, not against itself.
//!
//! The flat shared-buffer representation (DESIGN.md §7.2) must behave
//! exactly like the obvious one: a `Vec<Vec<u8>>` of labels,
//! most-specific first. Every property below computes its expectation on
//! that model. The `name_hash64` values and the `{:?}` string at the end
//! were recorded on the commit before the representation changed; both
//! are part of the determinism contract (worker sharding, cache stripes,
//! the event-log digests of `tests/tick_incremental.rs`).

use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use dsec_wire::{name_hash64, FnvHasher, Name, WireError, WireReader, WireWriter};
use proptest::prelude::*;

type Model = Vec<Vec<u8>>;

/// Labels that stress the flat layout: mixed case, arbitrary octets
/// (dots, backslashes, bytes below 64 that look like length octets, high
/// bytes), full 63-byte labels, and the label whose bytes end in the
/// wire form of `com.`.
fn arb_label() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        proptest::string::string_regex("[a-zA-Z0-9-]{1,12}")
            .unwrap()
            .prop_map(String::into_bytes),
        proptest::collection::vec(any::<u8>(), 1..10),
        proptest::collection::vec(0u8..64, 1..6),
        proptest::collection::vec(any::<u8>(), 63..64),
        Just(b"com".to_vec()),
        Just(b"a\x03com".to_vec()),
    ]
}

fn arb_labels() -> impl Strategy<Value = Model> {
    proptest::collection::vec(arb_label(), 0..5)
}

/// Flips the case of the letters `mask` selects — never changes identity.
fn recase(labels: &Model, mask: u64) -> Model {
    let mut bit = 0;
    labels
        .iter()
        .map(|label| {
            label
                .iter()
                .map(|&b| {
                    bit += 1;
                    if b.is_ascii_alphabetic() && (mask >> (bit % 64)) & 1 == 1 {
                        b ^ 0x20
                    } else {
                        b
                    }
                })
                .collect()
        })
        .collect()
}

fn model_wire_len(labels: &Model) -> usize {
    labels.iter().map(|l| l.len() + 1).sum::<usize>() + 1
}

fn model_display(labels: &Model) -> String {
    if labels.is_empty() {
        return ".".into();
    }
    let mut out = String::new();
    for label in labels {
        for &b in label {
            match b {
                b'.' => out.push_str("\\."),
                b'\\' => out.push_str("\\\\"),
                0x21..=0x7e => out.push(b as char),
                _ => out.push_str(&format!("\\{b:03}")),
            }
        }
        out.push('.');
    }
    out
}

fn lower(label: &[u8]) -> Vec<u8> {
    label.to_ascii_lowercase()
}

fn model_eq(a: &[Vec<u8>], b: &[Vec<u8>]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.eq_ignore_ascii_case(y))
}

/// RFC 4034 §6.1: label sequences compared from the root, lowercased,
/// as unsigned octet strings; a proper prefix sorts first.
fn model_cmp(a: &Model, b: &Model) -> Ordering {
    a.iter()
        .rev()
        .map(|l| lower(l))
        .cmp(b.iter().rev().map(|l| lower(l)))
}

fn model_is_subdomain(a: &Model, b: &Model) -> bool {
    a.len() >= b.len() && model_eq(&a[a.len() - b.len()..], b)
}

fn model_canonical_wire(labels: &Model) -> Vec<u8> {
    let mut out = Vec::new();
    for label in labels {
        out.push(label.len() as u8);
        out.extend(lower(label));
    }
    out.push(0);
    out
}

/// The name for a model, or `None` when the model is over the 255-octet
/// limit — in which case the constructor must say so too.
fn build(labels: &Model) -> Option<Name> {
    let built = Name::from_labels(labels);
    if model_wire_len(labels) > 255 {
        assert!(matches!(built, Err(WireError::NameTooLong(_))), "{built:?}");
        return None;
    }
    Some(built.expect("model within limits"))
}

fn to_model(name: &Name) -> Model {
    name.labels().map(<[u8]>::to_vec).collect()
}

fn std_hash(name: &Name) -> u64 {
    let mut h = DefaultHasher::new();
    name.hash(&mut h);
    h.finish()
}

fn fnv_hash(name: &Name) -> u64 {
    let mut h = FnvHasher::default();
    name.hash(&mut h);
    h.finish()
}

proptest! {
    #[test]
    fn construction_round_trips_through_labels_and_text(labels in arb_labels()) {
        let Some(name) = build(&labels) else { continue };
        prop_assert_eq!(to_model(&name), labels.clone());
        prop_assert_eq!(name.label_count(), labels.len());
        prop_assert_eq!(name.is_root(), labels.is_empty());
        prop_assert_eq!(name.wire_len(), model_wire_len(&labels));

        let text = name.to_string();
        prop_assert_eq!(&text, &model_display(&labels));
        // Parsing keeps every octet, case included.
        let parsed = Name::parse(&text).unwrap();
        prop_assert_eq!(to_model(&parsed), labels.clone());
        let unrooted = text.strip_suffix('.').unwrap();
        prop_assert_eq!(to_model(&Name::parse(unrooted).unwrap()), labels);
    }

    #[test]
    fn equality_and_hashes_fold_case_and_nothing_else(
        a in arb_labels(),
        b in arb_labels(),
        mask in any::<u64>(),
    ) {
        let (Some(na), Some(nb)) = (build(&a), build(&b)) else { continue };
        prop_assert_eq!(na == nb, model_eq(&a, &b));

        let recased = build(&recase(&a, mask)).unwrap();
        prop_assert_eq!(&recased, &na);
        prop_assert_eq!(std_hash(&recased), std_hash(&na));
        prop_assert_eq!(fnv_hash(&recased), fnv_hash(&na));
        prop_assert_eq!(name_hash64(&recased), name_hash64(&na));
        prop_assert_eq!(recased.cmp(&na), Ordering::Equal);
        prop_assert_eq!(to_model(&recased.to_canonical()), to_model(&na.to_canonical()));
    }

    #[test]
    fn canonical_order_matches_the_model(
        a in arb_labels(),
        b in arb_labels(),
        shared in arb_labels(),
    ) {
        // Bare pairs rarely tie on a trailing label; a shared suffix
        // makes the comparison reach the labels in front of it.
        let with_suffix = |front: &Model| [front.clone(), shared.clone()].concat();
        for (x, y) in [(a.clone(), b.clone()), (with_suffix(&a), with_suffix(&b))] {
            let (Some(nx), Some(ny)) = (build(&x), build(&y)) else { continue };
            prop_assert_eq!(nx.canonical_cmp(&ny), model_cmp(&x, &y));
            prop_assert_eq!(nx.cmp(&ny), model_cmp(&x, &y));
            prop_assert_eq!(ny.canonical_cmp(&nx), model_cmp(&y, &x));
        }
    }

    #[test]
    fn subdomain_relation_lands_on_label_boundaries(
        front in arb_labels(),
        zone in arb_labels(),
        other in arb_labels(),
        mask in any::<u64>(),
    ) {
        let below = [front.clone(), recase(&zone, mask)].concat();
        let (Some(n_below), Some(n_zone), Some(n_other)) =
            (build(&below), build(&zone), build(&other)) else { continue };
        prop_assert!(n_below.is_subdomain_of(&n_zone));
        prop_assert_eq!(n_below.is_strict_subdomain_of(&n_zone), !front.is_empty());
        prop_assert!(n_below.is_subdomain_of(&Name::root()));
        prop_assert_eq!(n_below.is_subdomain_of(&n_other), model_is_subdomain(&below, &other));
        prop_assert_eq!(n_other.is_subdomain_of(&n_below), model_is_subdomain(&other, &below));
        prop_assert_eq!(
            n_other.is_strict_subdomain_of(&n_below),
            model_is_subdomain(&other, &below) && other.len() > below.len()
        );
    }

    #[test]
    fn derived_names_match_the_model(labels in arb_labels(), child in arb_label()) {
        let Some(name) = build(&labels) else { continue };
        match name.parent() {
            None => prop_assert!(labels.is_empty()),
            Some(parent) => prop_assert_eq!(to_model(&parent), labels[1..].to_vec()),
        }
        for keep in 0..labels.len() + 2 {
            let from = labels.len().saturating_sub(keep);
            prop_assert_eq!(to_model(&name.trim_to(keep)), labels[from..].to_vec());
        }
        let sld = labels[labels.len().saturating_sub(2)..].to_vec();
        prop_assert_eq!(to_model(&name.second_level()), sld);

        let canonical: Model = labels.iter().map(|l| lower(l)).collect();
        prop_assert_eq!(to_model(&name.to_canonical()), canonical);
        prop_assert_eq!(name.to_canonical_wire(), model_canonical_wire(&labels));

        // `child` takes text, so give it a label that is its own text form.
        if let Ok(text) = std::str::from_utf8(&child) {
            let grown = [vec![child.clone()], labels.clone()].concat();
            match name.child(text) {
                Ok(c) => prop_assert_eq!(to_model(&c), grown),
                Err(_) => prop_assert!(model_wire_len(&grown) > 255),
            }
        }
    }

    #[test]
    fn names_survive_the_codec_with_and_without_compression(
        fronts in proptest::collection::vec(arb_labels(), 1..5),
        shared in arb_labels(),
        mask in any::<u64>(),
    ) {
        // Names under one suffix, re-cased per name, so compression has
        // pointers to emit and must match them case-insensitively.
        let models: Vec<Model> = fronts
            .iter()
            .enumerate()
            .map(|(i, front)| [front.clone(), recase(&shared, mask.rotate_left(i as u32))].concat())
            .filter(|m| model_wire_len(m) <= 255)
            .collect();
        let names: Vec<Name> = models.iter().map(|m| build(m).unwrap()).collect();

        let mut plain = WireWriter::uncompressed();
        let mut packed = WireWriter::new();
        for name in &names {
            plain.put_name(name);
            packed.put_name(name);
        }
        let (plain, packed) = (plain.into_bytes(), packed.into_bytes());
        prop_assert_eq!(plain.len(), models.iter().map(model_wire_len).sum::<usize>());
        prop_assert!(packed.len() <= plain.len());

        let mut reader = WireReader::new(&plain);
        for model in &models {
            // Uncompressed: every octet comes back, case included.
            prop_assert_eq!(&to_model(&reader.get_name().unwrap()), model);
        }
        prop_assert!(reader.is_at_end());
        let mut reader = WireReader::new(&packed);
        for name in &names {
            // Compressed: a shared suffix takes the case of its first
            // occurrence, which is the same name.
            prop_assert_eq!(&reader.get_name().unwrap(), name);
        }
        prop_assert!(reader.is_at_end());
    }
}

#[test]
fn a_label_ending_in_the_bytes_of_com_is_not_under_com() {
    let com = Name::parse("com").unwrap();
    let lookalike = Name::from_labels([b"a\x03com"]).unwrap();
    assert!(!lookalike.is_subdomain_of(&com));
    assert!(!lookalike.is_strict_subdomain_of(&com));
    let under = Name::from_labels([&b"a\x03com"[..], b"COM"]).unwrap();
    assert!(under.is_strict_subdomain_of(&com));
    assert!(!under.is_subdomain_of(&lookalike));
}

#[test]
fn limits_are_enforced_at_construction() {
    assert!(matches!(
        Name::from_labels([b""]),
        Err(WireError::EmptyLabel)
    ));
    assert!(matches!(
        Name::from_labels([[b'a'; 64]]),
        Err(WireError::LabelTooLong(64))
    ));
    // 3 × 63 + 61 octets of labels + 4 length octets + the root = 255.
    let mut labels = vec![vec![b'a'; 63]; 3];
    labels.push(vec![b'a'; 61]);
    assert_eq!(Name::from_labels(&labels).unwrap().wire_len(), 255);
    labels[3].push(b'a');
    assert!(matches!(
        Name::from_labels(&labels),
        Err(WireError::NameTooLong(256))
    ));
}

#[test]
fn a_pointer_chain_assembling_more_than_255_octets_is_name_too_long() {
    // Five 63-octet labels, each followed by a pointer to the previous
    // one: every hop is legal (strictly backwards, well under the hop
    // limit), every label is legal, the sum (5 × 64 + 1) is not.
    let mut msg = Vec::new();
    let mut starts: Vec<usize> = Vec::new();
    for _ in 0..5 {
        let previous = starts.last().copied();
        starts.push(msg.len());
        msg.push(63);
        msg.extend([b'x'; 63]);
        match previous {
            None => msg.push(0),
            Some(p) => msg.extend((0xC000 | p as u16).to_be_bytes()),
        }
    }
    let mut reader = WireReader::new(&msg);
    reader.seek(starts[4]).unwrap();
    assert!(matches!(reader.get_name(), Err(WireError::NameTooLong(_))));

    // Two labels fewer fit (3 × 64 + 1 = 193), from the same buffer.
    let mut reader = WireReader::new(&msg);
    reader.seek(starts[2]).unwrap();
    let name = reader.get_name().unwrap();
    assert_eq!((name.label_count(), name.wire_len()), (3, 193));
}

/// Recorded on the parent commit (`Vec<Label>` representation): the
/// traffic plane shards workers and the resolver picks cache stripes by
/// these values, so they are part of the same-seed-same-bytes contract.
#[test]
fn name_hash64_golden_values() {
    let golden: [(&str, u64); 6] = [
        (".", 0xcbf29ce484222325),
        ("com.", 0x0bcc8191195ed713),
        ("example.com.", 0xf3e7ed9c32d7a074),
        ("WWW.Example.com.", 0x4473b13a456d7688),
        ("ns1.a\\.b.\\000\\255x.nl.", 0xf6e6b9b6a8ff631d),
        ("a.b.c.d.e.f.example.se.", 0x4c70ada8248d25b2),
    ];
    for (text, hash) in golden {
        assert_eq!(name_hash64(&Name::parse(text).unwrap()), hash, "{text}");
    }
}

/// Recorded on the parent commit: the derived `Debug` of
/// `Name { labels: Vec<Label> }`. Event-log digests hash this string.
#[test]
fn debug_output_golden() {
    assert_eq!(
        format!("{:?}", Name::parse("WWW.Example.com.").unwrap()),
        "Name { labels: [Label([87, 87, 87]), Label([69, 120, 97, 109, 112, 108, 101]), \
         Label([99, 111, 109])] }"
    );
    assert_eq!(format!("{:?}", Name::root()), "Name { labels: [] }");
    assert_eq!(
        format!("{:#?}", Name::parse("a.nl").unwrap()),
        "Name {\n    labels: [\n        Label(\n            [\n                97,\n            ],\n        ),\n        Label(\n            [\n                110,\n                108,\n            ],\n        ),\n    ],\n}"
    );
}
