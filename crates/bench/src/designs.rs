//! The design points of the paper's two application studies, and builders
//! that realize them as `CaRamTable`s over the synthetic workloads; plus
//! the shard geometry of the serving and durability benches, and the
//! compiled five-tuple classifier the pattern benches share.

use ca_ram_cam::aggregate::PrefixEntry;
use ca_ram_core::index::{DjbHash, RangeSelect};
use ca_ram_core::layout::{Record, RecordLayout};
use ca_ram_core::pattern::{compile, CompiledPlan, GeometryHint};
use ca_ram_core::probe::ProbePolicy;
use ca_ram_core::storage::{IndexSpec, TableSpec};
use ca_ram_core::table::{Arrangement, CaRamTable, OverflowPolicy, TableConfig};
use ca_ram_workloads::packet::{self, ClassifierRule, PacketClassConfig};
use ca_ram_workloads::prefix::Ipv4Prefix;
use ca_ram_workloads::trigram::text_ternary_key;

/// One row of Table 2 or Table 3: a named CA-RAM design point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DesignPoint {
    /// The paper's design letter.
    pub name: &'static str,
    /// `R`: log2 of rows per slice.
    pub rows_log2: u32,
    /// Keys per slice row (the paper writes `C` as `keys × key_bits`).
    pub keys_per_row: u32,
    /// Number of slices.
    pub slices: u32,
    /// Horizontal or vertical arrangement.
    pub horizontal: bool,
}

impl DesignPoint {
    /// The arrangement of this design.
    #[must_use]
    pub fn arrangement(&self) -> Arrangement {
        if self.horizontal {
            Arrangement::Horizontal(self.slices)
        } else {
            Arrangement::Vertical(self.slices)
        }
    }

    /// Human-readable arrangement label, as printed in the paper's tables.
    #[must_use]
    pub fn arrangement_label(&self) -> &'static str {
        if self.horizontal {
            "horizontal"
        } else {
            "vertical"
        }
    }
}

/// Table 2's six IP-lookup designs A–F.
#[must_use]
pub fn ip_designs() -> Vec<DesignPoint> {
    vec![
        DesignPoint {
            name: "A",
            rows_log2: 11,
            keys_per_row: 32,
            slices: 6,
            horizontal: true,
        },
        DesignPoint {
            name: "B",
            rows_log2: 11,
            keys_per_row: 32,
            slices: 7,
            horizontal: true,
        },
        DesignPoint {
            name: "C",
            rows_log2: 11,
            keys_per_row: 32,
            slices: 8,
            horizontal: true,
        },
        DesignPoint {
            name: "D",
            rows_log2: 12,
            keys_per_row: 64,
            slices: 2,
            horizontal: true,
        },
        DesignPoint {
            name: "E",
            rows_log2: 12,
            keys_per_row: 64,
            slices: 3,
            horizontal: true,
        },
        DesignPoint {
            name: "F",
            rows_log2: 12,
            keys_per_row: 64,
            slices: 2,
            horizontal: false,
        },
    ]
}

/// Table 3's four trigram designs A–D.
#[must_use]
pub fn trigram_designs() -> Vec<DesignPoint> {
    vec![
        DesignPoint {
            name: "A",
            rows_log2: 14,
            keys_per_row: 96,
            slices: 4,
            horizontal: false,
        },
        DesignPoint {
            name: "B",
            rows_log2: 14,
            keys_per_row: 96,
            slices: 5,
            horizontal: false,
        },
        DesignPoint {
            name: "C",
            rows_log2: 14,
            keys_per_row: 96,
            slices: 4,
            horizontal: true,
        },
        DesignPoint {
            name: "D",
            rows_log2: 14,
            keys_per_row: 96,
            slices: 5,
            horizontal: true,
        },
    ]
}

/// The stored-key layout of the IP study: 32 ternary symbols (64 stored
/// bits), key-only rows.
#[must_use]
pub fn ip_layout() -> RecordLayout {
    RecordLayout::new(32, true, 0)
}

/// The stored-key layout of the trigram study: 128 binary bits, key-only.
#[must_use]
pub fn trigram_layout() -> RecordLayout {
    RecordLayout::new(128, false, 0)
}

/// Builds an empty table for an IP design (hash = last `R'` bits of the
/// first 16 address bits, where `R'` covers the logical bucket space).
///
/// # Panics
///
/// Panics if the design point is inconsistent with the layout.
#[must_use]
pub fn build_ip_table(design: &DesignPoint) -> CaRamTable {
    let layout = ip_layout();
    let row_bits = design.keys_per_row * layout.slot_bits();
    let vertical_factor = if design.horizontal { 1 } else { design.slices };
    let index_bits = design.rows_log2 + vertical_factor.next_power_of_two().trailing_zeros();
    let config = TableConfig {
        rows_log2: design.rows_log2,
        row_bits,
        layout,
        arrangement: design.arrangement(),
        probe: ProbePolicy::Linear,
        overflow: OverflowPolicy::Probe { max_steps: 4096 },
    };
    CaRamTable::new(config, Box::new(RangeSelect::ip_first16_last(index_bits)))
        .expect("design points are valid configurations")
}

/// Builds an empty table for a trigram design (DJB hash over the 16-byte
/// key, reduced modulo the logical bucket count).
///
/// # Panics
///
/// Panics if the design point is inconsistent with the layout.
#[must_use]
pub fn build_trigram_table(design: &DesignPoint) -> CaRamTable {
    let layout = trigram_layout();
    let row_bits = design.keys_per_row * layout.slot_bits();
    let config = TableConfig {
        rows_log2: design.rows_log2,
        row_bits,
        layout,
        arrangement: design.arrangement(),
        probe: ProbePolicy::Linear,
        overflow: OverflowPolicy::Probe { max_steps: 1 << 16 },
    };
    CaRamTable::new(config, Box::new(DjbHash::new(32, 16)))
        .expect("design points are valid configurations")
}

/// The table one serving shard (or one durability-bench table) holds:
/// `records` binary 64-bit keys with 64-bit data, 8 slots per row, linear
/// probing indexed by the key's low bits. The 3x row headroom over a
/// uniform split absorbs routing imbalance, so every insert lands before
/// the probe sequence exhausts.
#[must_use]
pub fn shard_spec(records: usize) -> TableSpec {
    const SLOTS_PER_ROW: u32 = 8;
    let layout = RecordLayout::new(64, false, 64);
    let buckets = (records * 3).div_ceil(SLOTS_PER_ROW as usize).max(16);
    let rows_log2 = buckets.next_power_of_two().trailing_zeros();
    TableSpec {
        config: TableConfig {
            rows_log2,
            row_bits: SLOTS_PER_ROW * layout.slot_bits(),
            layout,
            arrangement: Arrangement::Horizontal(1),
            probe: ProbePolicy::Linear,
            overflow: OverflowPolicy::Probe {
                max_steps: u32::MAX,
            },
        },
        index: IndexSpec::RangeSelect {
            low: 0,
            count: rows_log2,
        },
    }
}

/// Inserts prefixes (already sorted in priority order) with the given
/// access weights. Returns the number inserted; panics on `TableFull`,
/// which would indicate a mis-sized design.
///
/// # Panics
///
/// Panics if an insert fails.
pub fn load_prefixes(table: &mut CaRamTable, prefixes: &[Ipv4Prefix], weights: &[f64]) {
    assert_eq!(prefixes.len(), weights.len(), "one weight per prefix");
    // The Table 2 designs store keys only (C counts 64-bit ternary keys);
    // the prefix length is recoverable from the stored mask. When a layout
    // does carry data, store the next-hop-style prefix length.
    let store_len = table.layout().data_bits() >= 8;
    for (p, &w) in prefixes.iter().zip(weights) {
        let data = if store_len { u64::from(p.len()) } else { 0 };
        let record = Record::new(p.to_ternary_key(), data);
        table
            .insert_weighted(record, w)
            .unwrap_or_else(|e| panic!("inserting {p}: {e}"));
    }
}

/// Inserts trigram entries (binary keys; order is irrelevant for
/// exact-match search).
///
/// # Panics
///
/// Panics if an insert fails.
pub fn load_trigrams(table: &mut CaRamTable, entries: &[String]) {
    // Table 3's designs store keys only (C = 128 x 96 bits of keys); when a
    // layout does carry data, store the entry index (an LM-score handle).
    let store_index = table.layout().data_bits() >= 32;
    for (i, s) in entries.iter().enumerate() {
        let data = if store_index {
            u64::try_from(i).expect("entry count fits u64")
        } else {
            0
        };
        let record = Record::new(text_ternary_key(s), data);
        table
            .insert(record)
            .unwrap_or_else(|e| panic!("inserting {s:?}: {e}"));
    }
}

/// The five-tuple classifier of `perf_smoke`'s `packet-class` row: 500
/// rules drawn from `seed` (source prefixes /14 or longer), in priority
/// order, and the plan that compiles the five-tuple spec onto 2^11 rows of
/// 16 slots with 32-bit actions.
///
/// # Panics
///
/// Panics if the spec does not compile onto that geometry.
#[must_use]
pub fn classifier(seed: u64) -> (Vec<ClassifierRule>, CompiledPlan) {
    let rules = packet::generate(&PacketClassConfig {
        rules: 500,
        min_src_len: 14,
        seed,
    });
    let plan = compile(
        &packet::classifier_spec(),
        &GeometryHint {
            rows_log2: 11,
            slots_per_row: 16,
            data_bits: 32,
        },
    )
    .expect("five-tuple spec compiles");
    (rules, plan)
}

/// Inserts every rule's lowered entries, in rule (priority) order, with
/// plain inserts: without deletes the first match is then the
/// earliest-inserted matching rule under any probe order.
///
/// # Panics
///
/// Panics if a rule does not lower or an insert fails.
pub fn load_rules(table: &mut CaRamTable, plan: &CompiledPlan, rules: &[ClassifierRule]) {
    for r in rules {
        let records = plan
            .lower_entry(&r.to_pattern(), r.action)
            .expect("generated rules lower");
        for rec in records {
            table
                .insert(rec)
                .unwrap_or_else(|e| panic!("inserting rule {r:?}: {e}"));
        }
    }
}

/// The forwarding function `ablation` aggregates: one of 16 next hops per
/// /20 block, so prefixes inside one block are mergeable siblings.
#[must_use]
pub fn next_hop_entries(prefixes: &[Ipv4Prefix]) -> Vec<PrefixEntry> {
    prefixes
        .iter()
        .map(|p| PrefixEntry {
            key: p.to_ternary_key(),
            data: u64::from(p.addr() >> 12) % 16,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_ram_core::key::SearchKey;
    use ca_ram_workloads::bgp::{generate, BgpConfig};
    use ca_ram_workloads::trigram::{generate as gen_tri, pack_text_key, TrigramConfig};

    #[test]
    fn design_tables_match_paper_capacities() {
        // Table 2 capacities (logical buckets x slots).
        let caps: Vec<(u64, u32)> = ip_designs()
            .iter()
            .map(|d| {
                let t = build_ip_table(d);
                (t.logical_buckets(), t.slots_per_bucket())
            })
            .collect();
        assert_eq!(
            caps,
            vec![
                (2048, 192),
                (2048, 224),
                (2048, 256),
                (4096, 128),
                (4096, 192),
                (8192, 64),
            ]
        );
        // Table 3 capacities.
        let caps: Vec<(u64, u32)> = trigram_designs()
            .iter()
            .map(|d| {
                let t = build_trigram_table(d);
                (t.logical_buckets(), t.slots_per_bucket())
            })
            .collect();
        assert_eq!(
            caps,
            vec![(65_536, 96), (81_920, 96), (16_384, 384), (16_384, 480)]
        );
    }

    #[test]
    fn load_factors_match_paper_at_full_scale() {
        // α = N/(M×S) with N = 186,760: A 0.47, B 0.40, C 0.36, D 0.36,
        // E 0.24, F 0.36 (Table 2) — pure arithmetic, no generation needed.
        let expected = [0.47, 0.40, 0.36, 0.36, 0.24, 0.36];
        for (d, &want) in ip_designs().iter().zip(&expected) {
            let t = build_ip_table(d);
            #[allow(clippy::cast_precision_loss)]
            let alpha = 186_760.0 / (t.logical_buckets() as f64 * f64::from(t.slots_per_bucket()));
            assert!((alpha - want).abs() < 0.01, "design {}: {alpha:.3}", d.name);
        }
    }

    #[test]
    fn ip_end_to_end_small_scale() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let prefixes = generate(&BgpConfig::scaled(3_000));
        let weights = vec![1.0; prefixes.len()];
        let mut t = build_ip_table(&ip_designs()[0]);
        load_prefixes(&mut t, &prefixes, &weights);
        let report = t.load_report();
        assert_eq!(report.original_records, 3_000);
        // Every prefix must be findable by one of its member addresses.
        let mut rng = SmallRng::seed_from_u64(1);
        for p in prefixes.iter().take(300) {
            let addr = p.random_member(&mut rng);
            let got = t.search(&SearchKey::new(u128::from(addr), 32));
            let hit = got.hit.unwrap_or_else(|| panic!("{p} lost"));
            // LPM: the matched prefix is at least as long as p (length =
            // care count of the stored ternary key).
            assert!(hit.record.key.care_count() >= u32::from(p.len()), "{p}");
        }
    }

    #[test]
    fn trigram_end_to_end_small_scale() {
        let entries = gen_tri(&TrigramConfig {
            entries: 4_000,
            vocabulary: 2_000,
            ..TrigramConfig::sphinx_like()
        });
        let mut t = build_trigram_table(&trigram_designs()[0]);
        load_trigrams(&mut t, &entries);
        for s in entries.iter().take(200) {
            let key = pack_text_key(s);
            let got = t.search(&SearchKey::new(key, 128));
            assert_eq!(got.hit.map(|h| h.record.key.value()), Some(key), "{s:?}");
        }
        // An absent trigram misses.
        assert!(t
            .search(&SearchKey::new(pack_text_key("zz zz zz zz zz"), 128))
            .hit
            .is_none());
    }
}
