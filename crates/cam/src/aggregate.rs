//! TCAM entry-count reduction by prefix aggregation (Sec. 5.1's theme:
//! "more sophisticated encoding schemes can reduce the number of necessary
//! entries in TCAM", cf. Hanzawa et al. \[7\]).
//!
//! This module implements the classical *sibling merge* optimization: two
//! prefixes `P0/l` and `P1/l` that differ only in bit `l` and carry the same
//! data collapse into `P/(l-1)`, applied to a fixed point. Aggregation is
//! semantics-preserving for LPM **when the shorter merged prefix is not
//! shadowed differently** — the implementation checks covering prefixes and
//! refuses unsafe merges, so the aggregated table computes the same
//! forwarding function.

use std::collections::HashMap;

use ca_ram_core::key::TernaryKey;

/// A (prefix, data) pair to aggregate. The prefix is a ternary key whose
/// don't-care bits form a contiguous low-order run (an IP-style prefix).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PrefixEntry {
    /// The prefix as a ternary key.
    pub key: TernaryKey,
    /// Forwarding data; merges require equal data.
    pub data: u64,
}

/// Result of an aggregation pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Aggregated {
    /// The reduced entry set.
    pub entries: Vec<PrefixEntry>,
    /// Entries eliminated.
    pub removed: usize,
}

fn prefix_len(key: &TernaryKey) -> u32 {
    key.care_count()
}

fn is_prefix_shaped(key: &TernaryKey) -> bool {
    // Don't-care bits must be exactly the low (bits - care) positions.
    let dc_len = key.bits() - key.care_count();
    let expected = if dc_len == 0 {
        0
    } else {
        (1u128 << dc_len) - 1
    };
    key.dont_care() == expected
}

/// Aggregates sibling prefixes with identical data, to a fixed point.
///
/// Entries that are not prefix-shaped are passed through untouched. A merge
/// is performed only when no *other* entry lies strictly between the merged
/// parent and the two siblings in specificity over the same address space —
/// with same-data siblings and LPM semantics, the merge is then exact.
///
/// # Panics
///
/// Panics if entries have differing key widths.
#[must_use]
pub fn aggregate(entries: &[PrefixEntry]) -> Aggregated {
    let original = entries.len();
    if entries.is_empty() {
        return Aggregated {
            entries: Vec::new(),
            removed: 0,
        };
    }
    let bits = entries[0].key.bits();
    assert!(
        entries.iter().all(|e| e.key.bits() == bits),
        "mixed key widths cannot be aggregated"
    );
    // Pass through non-prefix-shaped entries untouched; index the rest by
    // (length, value) for O(1) sibling and parent lookups.
    let mut passthrough = Vec::new();
    let mut live: HashMap<(u32, u128), u64> = HashMap::with_capacity(entries.len());
    for e in entries {
        if is_prefix_shaped(&e.key) {
            // First occurrence wins for duplicate keys.
            live.entry((prefix_len(&e.key), e.key.value()))
                .or_insert(e.data);
        } else {
            passthrough.push(*e);
        }
    }
    let dedup_removed = original - passthrough.len() - live.len();

    // Worklist of candidate merge points, seeded in a fixed order: which
    // siblings merge depends on the order they are visited (a parent merged
    // away before its children are may be recreated by them), and a
    // `HashMap`'s iteration order changes from map to map.
    let mut work: Vec<(u32, u128)> = live.keys().copied().collect();
    work.sort_unstable();
    while let Some((len, value)) = work.pop() {
        if len == 0 {
            continue;
        }
        let Some(&data) = live.get(&(len, value)) else {
            continue; // already merged away
        };
        let sib_bit = 1u128 << (bits - len);
        let zero_side = value & !sib_bit;
        let sibling = zero_side | sib_bit;
        let other = if value & sib_bit == 0 {
            sibling
        } else {
            zero_side
        };
        let Some(&other_data) = live.get(&(len, other)) else {
            continue;
        };
        if other_data != data {
            continue;
        }
        let parent_len = len - 1;
        let parent_value = zero_side
            & if parent_len == 0 {
                0
            } else {
                !((1u128 << (bits - parent_len)) - 1)
            };
        match live.get(&(parent_len, parent_value)) {
            Some(&pd) if pd == data => {
                // Parent already present with the same data: the children
                // are redundant.
                live.remove(&(len, zero_side));
                live.remove(&(len, sibling));
                work.push((parent_len, parent_value));
            }
            Some(_) => {
                // Parent present with different data: merging would create
                // an ambiguous duplicate; keep the children.
            }
            None => {
                live.remove(&(len, zero_side));
                live.remove(&(len, sibling));
                live.insert((parent_len, parent_value), data);
                work.push((parent_len, parent_value));
            }
        }
    }

    let mut out = passthrough;
    out.extend(live.into_iter().map(|((len, value), data)| {
        let dc = if len == 0 {
            low_mask_for(bits)
        } else if len == bits {
            0
        } else {
            (1u128 << (bits - len)) - 1
        };
        PrefixEntry {
            key: TernaryKey::ternary(value, dc, bits),
            data,
        }
    }));
    // Keep output deterministic.
    out.sort_by(|a, b| {
        b.key
            .care_count()
            .cmp(&a.key.care_count())
            .then(a.key.value().cmp(&b.key.value()))
            .then(a.data.cmp(&b.data))
    });
    let _ = dedup_removed;
    Aggregated {
        removed: original - out.len(),
        entries: out,
    }
}

pub(crate) fn low_mask_for(bits: u32) -> u128 {
    if bits == 128 {
        u128::MAX
    } else {
        (1u128 << bits) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_ram_core::key::SearchKey;

    fn p(addr: u32, len: u32, data: u64) -> PrefixEntry {
        let dc = if len == 32 {
            0
        } else {
            (1u128 << (32 - len)) - 1
        };
        PrefixEntry {
            key: TernaryKey::ternary(u128::from(addr) & !dc, dc, 32),
            data,
        }
    }

    /// Brute-force LPM over an entry list.
    fn lpm(entries: &[PrefixEntry], addr: u32) -> Option<u64> {
        entries
            .iter()
            .filter(|e| e.key.matches(&SearchKey::new(u128::from(addr), 32)))
            .max_by_key(|e| e.key.care_count())
            .map(|e| e.data)
    }

    #[test]
    fn sibling_pair_merges() {
        let entries = vec![p(0x0A00_0000, 24, 7), p(0x0A00_0100, 24, 7)];
        let agg = aggregate(&entries);
        assert_eq!(agg.entries.len(), 1);
        assert_eq!(agg.removed, 1);
        assert_eq!(agg.entries[0].key.care_count(), 23);
    }

    #[test]
    fn different_data_does_not_merge() {
        let entries = vec![p(0x0A00_0000, 24, 7), p(0x0A00_0100, 24, 8)];
        let agg = aggregate(&entries);
        assert_eq!(agg.removed, 0);
    }

    #[test]
    fn cascading_merges_to_fixed_point() {
        // Four /24 siblings with equal data collapse to one /22.
        let entries = vec![
            p(0x0A00_0000, 24, 5),
            p(0x0A00_0100, 24, 5),
            p(0x0A00_0200, 24, 5),
            p(0x0A00_0300, 24, 5),
        ];
        let agg = aggregate(&entries);
        assert_eq!(agg.entries.len(), 1);
        assert_eq!(agg.entries[0].key.care_count(), 22);
        assert_eq!(agg.removed, 3);
    }

    #[test]
    fn existing_parent_absorbs_children() {
        let entries = vec![
            p(0x0A00_0000, 23, 5),
            p(0x0A00_0000, 24, 5),
            p(0x0A00_0100, 24, 5),
        ];
        let agg = aggregate(&entries);
        assert_eq!(agg.entries.len(), 1);
        assert_eq!(agg.entries[0].key.care_count(), 23);
    }

    #[test]
    fn parent_with_different_data_blocks_merge() {
        let entries = vec![
            p(0x0A00_0000, 23, 9),
            p(0x0A00_0000, 24, 5),
            p(0x0A00_0100, 24, 5),
        ];
        let agg = aggregate(&entries);
        // Merging the /24s into a /23 would collide with the existing /23
        // carrying different data; entries must survive.
        assert_eq!(agg.removed, 0);
    }

    #[test]
    fn merge_order_is_fixed_across_runs() {
        // Per block: a /23 sibling pair plus the two /24 children of one of
        // them, all with one next hop. Visiting the /23s first merges them
        // into the /22 and then recreates the /23 from its children (two
        // entries left); visiting a child first leaves only the /22. Every
        // map gets a fresh `RandomState`, so an aggregation that follows
        // the map's iteration order gives different counts across calls.
        let entries: Vec<PrefixEntry> = (0..16u32)
            .flat_map(|block| {
                let base = 0x0A00_0000 | (block << 12);
                [
                    p(base, 23, 1),
                    p(base | 0x200, 23, 1),
                    p(base, 24, 1),
                    p(base | 0x100, 24, 1),
                ]
            })
            .collect();
        // The fixed order visits the longest prefixes first, so every block
        // ends as its one /22.
        let first = aggregate(&entries);
        assert_eq!(first.entries.len(), 16, "{:?}", first.entries);
        for _ in 0..32 {
            assert_eq!(aggregate(&entries), first);
        }
    }

    #[test]
    fn aggregation_preserves_the_forwarding_function() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(12);
        // Dense random table over a narrow space to force many merges.
        let mut entries = Vec::new();
        for _ in 0..300 {
            let len = rng.gen_range(20..=26u32);
            let addr = (rng.gen::<u32>() & 0x0000_FFFF) | 0x0A00_0000;
            entries.push(p(addr, len, u64::from(rng.gen_range(0..3u8))));
        }
        // Dedup identical keys (keep first).
        let mut seen = std::collections::HashSet::new();
        entries.retain(|e| seen.insert(e.key));
        let agg = aggregate(&entries);
        for _ in 0..5_000 {
            let addr = (rng.gen::<u32>() & 0x0000_FFFF) | 0x0A00_0000;
            assert_eq!(
                lpm(&entries, addr),
                lpm(&agg.entries, addr),
                "addr {addr:#010x}"
            );
        }
        assert!(agg.removed > 0, "the dense table must produce some merges");
    }
}
