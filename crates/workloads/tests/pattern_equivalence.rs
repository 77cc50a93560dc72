//! Pins the pattern-compiler refactor of the existing workloads:
//! the stored keys each workload now derives through
//! [`PatternSpec::lower`] must be **byte-identical** to the hand-derived
//! host-mask encodings the generators used before the compiler existed,
//! and the compiled tables must agree with the [`ReferenceModel`] on
//! member probes.
//!
//! The legacy formulas are inlined here on purpose — they are the
//! contract being pinned, so they must not be re-derived from the code
//! under test.
//!
//! [`PatternSpec::lower`]: ca_ram_core::pattern::PatternSpec::lower
//! [`ReferenceModel`]: ca_ram_core::oracle::ReferenceModel

use ca_ram_core::key::{SearchKey, TernaryKey};
use ca_ram_core::oracle::ReferenceModel;
use ca_ram_core::pattern::{compile, GeometryHint, Pattern};
use ca_ram_core::probe::ProbePolicy;
use ca_ram_core::table::{CaRamTable, TableConfig};
use ca_ram_workloads::packet::{
    self, classifier_spec, ClassifierRule, PacketClassConfig, PortMatch,
};
use ca_ram_workloads::{bgp, ipv6, prefix, trigram};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Legacy IPv4 encoding: value in the low 32 bits, the `32 - len` host
/// bits don't-care.
fn legacy_ipv4_key(addr: u32, len: u8) -> TernaryKey {
    let host = ((1u64 << (32 - u32::from(len))) - 1) as u128;
    TernaryKey::ternary(u128::from(addr), host, 32)
}

/// Legacy IPv6 encoding: 128 ternary symbols, host bits don't-care.
fn legacy_ipv6_key(addr: u128, len: u8) -> TernaryKey {
    let host = if len == 0 {
        u128::MAX
    } else {
        u128::MAX >> len
    };
    TernaryKey::ternary(addr, host, 128)
}

#[test]
fn ipv4_prefix_keys_are_byte_identical_to_legacy_encoding() {
    let table = bgp::generate(&bgp::BgpConfig::scaled(4_000));
    assert!(!table.is_empty());
    for p in &table {
        assert_eq!(
            p.to_ternary_key(),
            legacy_ipv4_key(p.addr(), p.len()),
            "compiled lowering changed the stored bits of {p}"
        );
    }
}

#[test]
fn ipv6_prefix_keys_are_byte_identical_to_legacy_encoding() {
    let table = ipv6::generate(&ipv6::Ipv6Config {
        prefixes: 2_000,
        allocations: 200,
        seed: 0x6666,
    });
    assert!(!table.is_empty());
    for p in &table {
        assert_eq!(
            p.to_ternary_key(),
            legacy_ipv6_key(p.addr(), p.len()),
            "compiled lowering changed the stored bits of /{} prefix",
            p.len()
        );
    }
}

#[test]
fn trigram_keys_are_byte_identical_to_legacy_encoding() {
    let entries = trigram::generate(&trigram::TrigramConfig::scaled(2_000));
    assert!(!entries.is_empty());
    for s in &entries {
        assert_eq!(
            trigram::text_ternary_key(s),
            TernaryKey::binary(trigram::pack_text_key(s), 128),
            "compiled lowering changed the stored bits of {s:?}"
        );
    }
}

/// A compiled-LPM table loaded with a scaled BGP snapshot answers member
/// probes exactly as the reference model does.
#[test]
fn compiled_ipv4_lpm_table_agrees_with_reference_model() {
    let prefixes = bgp::generate(&bgp::BgpConfig::scaled(500));
    let spec = prefix::lpm_spec();
    let plan = compile(
        &spec,
        &GeometryHint {
            rows_log2: 8,
            slots_per_row: 16,
            data_bits: 32,
        },
    )
    .expect("LPM spec compiles");
    let mut table = plan.build_table().expect("geometry is valid");
    let mut model = ReferenceModel::new(32);
    for (i, p) in prefixes.iter().enumerate() {
        let entries = plan
            .lower_entry(&p.to_pattern(), i as u64)
            .expect("a prefix lowers");
        let mut ok = true;
        for e in &entries {
            if table.insert_sorted(*e).is_err() {
                ok = false;
                break;
            }
        }
        // A capacity miss just skips the prefix in both stores; partial
        // multi-entry loads cannot happen (a prefix lowers to one key).
        assert_eq!(entries.len(), 1);
        if ok {
            model.insert_compiled(&entries);
        }
    }
    let mut rng = SmallRng::seed_from_u64(0x1234);
    for p in &prefixes {
        let key = SearchKey::new(u128::from(p.random_member(&mut rng)), 32);
        let expected = model.expected(&key);
        let got = table.search(&key).hit.map(|h| h.record.data);
        assert!(
            expected.admits(got),
            "member of {p} got {got:?}, model accepts {:?}",
            expected.accepted
        );
    }
    for _ in 0..200 {
        let key = SearchKey::new(u128::from(rng.gen::<u32>()), 32);
        let expected = model.expected(&key);
        let got = table.search(&key).hit.map(|h| h.record.data);
        assert!(expected.admits(got), "random probe diverged from model");
    }
}

/// The compiled five-tuple classifier probes its spills along home-derived
/// strides. A twin built from the same config and index with linear
/// probing, loaded with the same plain inserts, gives every packet of a flow
/// trace the same action: with no deletes, every slot ahead of a record on
/// its home's chain was full when the record was placed, so under any probe
/// order the first match is the earliest-inserted matching rule. Only the
/// rows read differ: linear probing merges the concentrated homes' spills
/// into one cluster.
#[test]
fn strided_classifier_answers_as_its_linear_twin_in_fewer_rows() {
    const SEED: u64 = 0x1103;
    let rules = packet::generate(&PacketClassConfig {
        rules: 500,
        min_src_len: 14,
        seed: SEED,
    });
    let plan = compile(
        &classifier_spec(),
        &GeometryHint {
            rows_log2: 11,
            slots_per_row: 16,
            data_bits: 32,
        },
    )
    .expect("five-tuple spec compiles");
    let mut strided = plan.build_table().expect("geometry is valid");
    let twin = TableConfig {
        probe: ProbePolicy::Linear,
        ..plan.config().clone()
    };
    let mut linear = CaRamTable::new(twin, plan.index().build()).expect("geometry is valid");
    let mut model = ReferenceModel::new(classifier_spec().key_bits());
    for r in &rules {
        let entries = plan
            .lower_entry(&r.to_pattern(), r.action)
            .expect("generated rules lower");
        for e in &entries {
            strided.insert(*e).expect("the rules fit the strided table");
            linear.insert(*e).expect("the rules fit the linear twin");
        }
        model.insert_compiled(&entries);
    }
    let trace = packet::flow_trace(&rules, 20_000, 0.8, SEED ^ 0xF10);
    let (mut strided_rows, mut linear_rows) = (0u64, 0u64);
    for pkt in &trace {
        let value = pkt.pack();
        let query = plan
            .lower_query(&Pattern::Exact { value })
            .expect("headers lower");
        let s = query.execute(&strided);
        let l = query.execute(&linear);
        let action = s.hit.map(|h| h.data);
        assert_eq!(action, l.hit.map(|h| h.data), "packet {pkt:?}");
        let expected = model.expected(&SearchKey::new(value, 128));
        assert!(
            expected.admits(action),
            "packet {pkt:?} got {action:?}, model accepts {:?}",
            expected.accepted
        );
        strided_rows += u64::from(s.memory_accesses);
        linear_rows += u64::from(l.memory_accesses);
    }
    #[allow(clippy::cast_precision_loss)]
    let per_query = |rows: u64| rows as f64 / trace.len() as f64;
    assert!(
        per_query(strided_rows) <= 6.0,
        "strided table read {} rows per query",
        per_query(strided_rows)
    );
    assert!(
        per_query(linear_rows) >= 50.0,
        "linear twin read only {} rows per query",
        per_query(linear_rows)
    );
}

/// The checked-in `range_expansion_one_value_128b.ops` fixture stores the
/// hand-computed cover of sport ∈ [3, 9]; the compiler must lower the
/// same rule to exactly those three entries, in the same order.
#[test]
fn fixture_entries_match_compiled_lowering_of_the_rule() {
    let rule = ClassifierRule {
        src: (0x0A00_0000, 16),
        dst: (0xC0A8_0101, 32),
        sport: PortMatch::Range(3, 9),
        dport: PortMatch::Exact(80),
        proto: Some(6),
        action: 5,
    };
    let entries = classifier_spec()
        .lower(&rule.to_pattern())
        .expect("the fixture rule lowers");
    let expected = [
        // {3}: all 16 sport bits cared.
        (
            0x0a000000_c0a80101_0003_0050_06_000000_u128,
            0x0000ffff_00000000_0000_0000_00_000000_u128,
        ),
        // 4..7 as 4/14: low 2 sport bits don't-care.
        (
            0x0a000000_c0a80101_0004_0050_06_000000_u128,
            0x0000ffff_00000000_0003_0000_00_000000_u128,
        ),
        // 8..9 as 8/15: low sport bit don't-care.
        (
            0x0a000000_c0a80101_0008_0050_06_000000_u128,
            0x0000ffff_00000000_0001_0000_00_000000_u128,
        ),
    ];
    assert_eq!(entries.len(), expected.len());
    for (e, &(value, dc)) in entries.iter().zip(&expected) {
        assert_eq!(*e, TernaryKey::ternary(value, dc, 128));
    }
}

/// Prefix patterns and exact patterns lower to single entries whose
/// care structure matches the declaration — a guard against the compiler
/// silently changing priority (care count drives LPM ordering).
#[test]
fn lowered_care_counts_match_declared_prefix_lengths() {
    let spec = prefix::lpm_spec();
    for len in 0..=32u32 {
        let keys = spec
            .lower(&Pattern::Prefix {
                value: 0xC0A8_0000 & if len == 0 { 0 } else { u128::MAX << (32 - len) },
                len,
            })
            .expect("prefix lowers");
        assert_eq!(keys.len(), 1);
        assert_eq!(
            keys[0].care_count(),
            len,
            "care count must equal prefix length"
        );
    }
}
