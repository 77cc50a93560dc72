//! The pattern compiler: lower high-level match patterns onto CA-RAM
//! configurations.
//!
//! The paper configures every CA-RAM by hand — each workload picks a key
//! layout, derives ternary masks, and chooses an index generator on its own.
//! This module inverts that flow, following the architecture of pattern-to-CAM
//! compilers (C4CAM): a workload declares *what* it matches as a
//! [`PatternSpec`], and [`compile`] lowers the spec onto a concrete
//! [`TableConfig`] — record layout, ternary storage decision, index
//! generator and overflow probe order — producing a [`CompiledPlan`] that
//! turns individual [`Pattern`]s into stored entries
//! ([`CompiledPlan::lower_entry`]) and multi-probe query plans
//! ([`CompiledPlan::lower_query`]). Rule tables probe with
//! [`ProbePolicy::SecondHash`], a stride derived from the home bucket;
//! every other mode probes linearly.
//!
//! ## The pattern IR
//!
//! A spec is a named, ordered list of [`FieldSpec`]s (packed MSB-first:
//! field 0 occupies the most-significant key bits) plus a [`MatchMode`]:
//!
//! * [`MatchMode::Exact`] — binary storage, hashed index;
//! * [`MatchMode::Lpm`] — ternary storage, longest-prefix-match priority,
//!   index bits taken from the top of the key so every prefix long enough
//!   to cover them lands in one home bucket;
//! * [`MatchMode::MultiField`] — ternary storage for rule tables
//!   (packet classification), index bits round-robined across the *top*
//!   bits of every field so a rule that wildcards one whole field still
//!   duplicates into few home buckets, and home-strided overflow probing
//!   so the spills of neighbouring homes do not merge into one cluster;
//! * [`MatchMode::Nearest`] — binary storage of exact words, approximate
//!   queries answered by a distance ladder of unit-masked probes
//!   (the multi-bit approximate search of FeFET-style associative
//!   memories); index bits round-robined one per unit, so a probe that
//!   wildcards one unit touches few buckets.
//!
//! Individual entries and queries are [`Pattern`]s: `Exact`, `Prefix`,
//! `RangeViaPrefixExpansion`, `MaskedMultiField`, and `NearestMatch`.
//!
//! ## Lowering rules and expansion costs
//!
//! * A prefix lowers to one ternary key (host bits don't-care).
//! * An arbitrary range `[lo, hi]` lowers to its minimal aligned-prefix
//!   cover — at most `2·W − 2` ternary entries for a width-`W` field, and
//!   exactly one entry for a single point or the full domain. Every entry
//!   of one expansion carries the *same* data payload, so a multi-entry
//!   range still reports one logical value (the [`crate::oracle`] reference
//!   model pins this: any max-care tie among expansion entries is the same
//!   answer).
//! * A multi-field pattern lowers to the cross product of its per-field
//!   covers. The product is bounded by [`expansion_limit`] (`2·W` for a
//!   `W`-bit key); exceeding it is a typed [`PatternError::ExpansionTooLarge`],
//!   never a silent explosion.
//! * A nearest-match query of distance `d` lowers to an ordered probe
//!   ladder: the exact probe, then every combination of `k = 1..=d`
//!   wildcarded units, in increasing-distance order — so the first hit is a
//!   nearest stored word (in unit-substitution/Hamming distance). The
//!   ladder is bounded by [`MAX_QUERY_PROBES`].

use std::fmt;

use crate::engine::{EngineOutcome, SearchEngine};
use crate::index::{BitSelect, DjbHash, IndexGenerator, RangeSelect};
use crate::key::{SearchKey, TernaryKey, MAX_KEY_BITS};
use crate::layout::{Record, RecordLayout, MAX_DATA_BITS};
use crate::probe::ProbePolicy;
use crate::table::{CaRamTable, TableConfig};

/// Worst-case entry count one logical pattern may lower to, for a
/// width-`W`-bit key: `2·W`. A single range's aligned-prefix cover is
/// structurally at most `2·W − 2` entries; multi-field cross products are
/// clamped to this limit with [`PatternError::ExpansionTooLarge`].
#[must_use]
pub const fn expansion_limit(width_bits: u32) -> usize {
    2 * width_bits as usize
}

/// Upper bound on the probes one query plan may contain (the nearest-match
/// distance ladder grows combinatorially; exceeding this is a typed
/// [`PatternError::ProbeBudgetExceeded`]).
pub const MAX_QUERY_PROBES: usize = 256;

/// Mask with the low `bits` bits set (`bits ≤ 128`).
const fn width_mask(bits: u32) -> u128 {
    if bits >= 128 {
        u128::MAX
    } else {
        (1u128 << bits) - 1
    }
}

/// A typed pattern-compilation error.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PatternError {
    /// The spec itself is malformed (empty fields, zero-width field, key
    /// wider than 128 bits, bad nearest-match geometry, …).
    BadSpec(String),
    /// A range with `lo > hi` matches nothing; lowering it to zero entries
    /// would silently drop the rule, so it is rejected instead.
    EmptyRange {
        /// Range low bound.
        lo: u128,
        /// Range high bound.
        hi: u128,
    },
    /// A pattern value or bound does not fit the field/key width.
    ValueTooWide {
        /// The width it must fit, in bits.
        bits: u32,
    },
    /// A prefix length exceeds the field/key width.
    PrefixTooLong {
        /// Requested prefix length.
        len: u32,
        /// Field or key width in bits.
        bits: u32,
    },
    /// A multi-field pattern supplied the wrong number of fields.
    FieldCountMismatch {
        /// Fields in the pattern.
        got: usize,
        /// Fields in the spec.
        expected: usize,
    },
    /// The pattern needs ternary (masked) storage or probing, but the spec's
    /// mode compiles to a binary table with an unrouteable hashed index.
    TernaryRequired {
        /// The pattern kind that required ternary support.
        pattern: &'static str,
    },
    /// A `NearestMatch` pattern was used with a spec whose mode is not
    /// [`MatchMode::Nearest`].
    NearestUnsupported,
    /// A nearest-match query asked for more distance than the spec allows.
    DistanceTooFar {
        /// Requested distance.
        requested: u32,
        /// Spec maximum.
        max: u32,
    },
    /// Lowering would exceed [`expansion_limit`] stored entries.
    ExpansionTooLarge {
        /// Entries the lowering would need.
        needed: u128,
        /// The enforced limit.
        limit: usize,
    },
    /// A query plan would exceed [`MAX_QUERY_PROBES`] probes.
    ProbeBudgetExceeded {
        /// Probes the plan would need.
        needed: u128,
        /// The enforced limit.
        limit: usize,
    },
    /// A data payload does not fit the compiled layout's data width.
    DataTooWide {
        /// Layout data width in bits.
        data_bits: u32,
    },
}

impl fmt::Display for PatternError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BadSpec(msg) => write!(f, "bad pattern spec: {msg}"),
            Self::EmptyRange { lo, hi } => {
                write!(f, "empty range [{lo:#x}, {hi:#x}] matches nothing")
            }
            Self::ValueTooWide { bits } => write!(f, "value does not fit in {bits} bits"),
            Self::PrefixTooLong { len, bits } => {
                write!(f, "prefix length {len} exceeds width {bits}")
            }
            Self::FieldCountMismatch { got, expected } => {
                write!(f, "pattern has {got} fields, spec has {expected}")
            }
            Self::TernaryRequired { pattern } => {
                write!(f, "{pattern} pattern requires a ternary-mode spec")
            }
            Self::NearestUnsupported => {
                write!(f, "nearest-match pattern requires a Nearest-mode spec")
            }
            Self::DistanceTooFar { requested, max } => {
                write!(f, "distance {requested} exceeds spec maximum {max}")
            }
            Self::ExpansionTooLarge { needed, limit } => {
                write!(f, "expansion needs {needed} entries, limit is {limit}")
            }
            Self::ProbeBudgetExceeded { needed, limit } => {
                write!(f, "query plan needs {needed} probes, limit is {limit}")
            }
            Self::DataTooWide { data_bits } => {
                write!(f, "data payload does not fit in {data_bits} bits")
            }
        }
    }
}

impl std::error::Error for PatternError {}

/// One named field of a [`PatternSpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldSpec {
    /// Field name, for reports and errors.
    pub name: String,
    /// Field width in bits (≥ 1).
    pub bits: u32,
}

impl FieldSpec {
    /// Creates a field spec.
    #[must_use]
    pub fn new(name: &str, bits: u32) -> Self {
        Self {
            name: name.to_owned(),
            bits,
        }
    }
}

/// How a [`PatternSpec`]'s table matches, which drives storage (binary vs.
/// ternary) and index-generator choice at compile time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatchMode {
    /// Exact match of full keys; binary storage, hashed index.
    Exact,
    /// Longest-prefix match; ternary storage, top-of-key range index.
    Lpm,
    /// Masked multi-field rules; ternary storage, index bits round-robined
    /// over the top bits of every field, overflow probed along
    /// [`ProbePolicy::SecondHash`]'s home-derived stride. Load rules with
    /// plain inserts in priority order: without deletes the first match
    /// under any probe order is the earliest-inserted matching rule.
    MultiField,
    /// Nearest-match over fixed-width units (e.g. bytes of a word); binary
    /// storage, index bits round-robined one per unit, approximate queries
    /// via a unit-masked probe ladder.
    Nearest {
        /// Width of one maskable unit in bits (key width must be a
        /// multiple).
        unit_bits: u32,
        /// Largest queryable distance, in substituted units.
        max_distance: u32,
    },
}

/// A high-level entry or query pattern, lowered by a [`PatternSpec`] /
/// [`CompiledPlan`] into ternary keys and probe plans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Pattern {
    /// One exact key value.
    Exact {
        /// Full-width key value.
        value: u128,
    },
    /// A prefix of the whole key: the top `len` bits of `value` care, the
    /// rest are wildcards.
    Prefix {
        /// Full-width value (host bits ignored).
        value: u128,
        /// Prefix length in bits (`0..=key_bits`).
        len: u32,
    },
    /// An inclusive value range, lowered to its minimal aligned-prefix
    /// cover of ternary entries.
    RangeViaPrefixExpansion {
        /// Inclusive low bound.
        lo: u128,
        /// Inclusive high bound.
        hi: u128,
    },
    /// One sub-pattern per spec field (packet-classifier rules).
    MaskedMultiField {
        /// Per-field patterns, in spec field order.
        fields: Vec<FieldPattern>,
    },
    /// All keys within `max_distance` substituted units of `value`
    /// (query-side only: entries store the word exactly).
    NearestMatch {
        /// Full-width reference value.
        value: u128,
        /// Maximum unit-substitution distance.
        max_distance: u32,
    },
}

/// A per-field sub-pattern of [`Pattern::MaskedMultiField`]. Values are
/// field-local (not shifted into key position).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldPattern {
    /// The field is a full wildcard.
    Any,
    /// The field must equal this value exactly.
    Exact(u128),
    /// The top `len` bits of the field must match `value`.
    Prefix {
        /// Field-local value (host bits ignored).
        value: u128,
        /// Prefix length within the field.
        len: u32,
    },
    /// The field falls in `[lo, hi]` inclusive (prefix-expanded).
    Range {
        /// Inclusive low bound.
        lo: u128,
        /// Inclusive high bound.
        hi: u128,
    },
}

/// A declarative description of what one table matches: named fields
/// (packed MSB-first) plus a [`MatchMode`]. The compiler's input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternSpec {
    name: String,
    fields: Vec<FieldSpec>,
    mode: MatchMode,
}

impl PatternSpec {
    fn validate(name: &str, fields: &[FieldSpec], mode: MatchMode) -> Result<(), PatternError> {
        if fields.is_empty() {
            return Err(PatternError::BadSpec(format!(
                "spec {name:?} has no fields"
            )));
        }
        if let Some(f) = fields.iter().find(|f| f.bits == 0) {
            return Err(PatternError::BadSpec(format!(
                "field {:?} of spec {name:?} has zero width",
                f.name
            )));
        }
        let total: u64 = fields.iter().map(|f| u64::from(f.bits)).sum();
        if total > u64::from(MAX_KEY_BITS) {
            return Err(PatternError::BadSpec(format!(
                "spec {name:?} is {total} bits wide, maximum is {MAX_KEY_BITS}"
            )));
        }
        if let MatchMode::Nearest {
            unit_bits,
            max_distance,
        } = mode
        {
            let total = u32::try_from(total).expect("≤ 128");
            if unit_bits == 0 || total % unit_bits != 0 {
                return Err(PatternError::BadSpec(format!(
                    "nearest unit of {unit_bits} bits does not divide the {total}-bit key"
                )));
            }
            let units = total / unit_bits;
            if max_distance == 0 || max_distance > units {
                return Err(PatternError::BadSpec(format!(
                    "nearest max distance {max_distance} outside 1..={units} units"
                )));
            }
        }
        Ok(())
    }

    /// Creates a spec from explicit fields and a mode.
    ///
    /// # Errors
    ///
    /// [`PatternError::BadSpec`] if the fields are empty, any field is
    /// zero-width, the total exceeds 128 bits, or the nearest-match
    /// geometry is inconsistent.
    pub fn new(name: &str, fields: Vec<FieldSpec>, mode: MatchMode) -> Result<Self, PatternError> {
        Self::validate(name, &fields, mode)?;
        Ok(Self {
            name: name.to_owned(),
            fields,
            mode,
        })
    }

    /// A single-field exact-match spec.
    ///
    /// # Errors
    ///
    /// As [`PatternSpec::new`].
    pub fn exact(name: &str, bits: u32) -> Result<Self, PatternError> {
        Self::new(name, vec![FieldSpec::new("key", bits)], MatchMode::Exact)
    }

    /// A single-field longest-prefix-match spec.
    ///
    /// # Errors
    ///
    /// As [`PatternSpec::new`].
    pub fn lpm(name: &str, bits: u32) -> Result<Self, PatternError> {
        Self::new(name, vec![FieldSpec::new("addr", bits)], MatchMode::Lpm)
    }

    /// A masked multi-field spec.
    ///
    /// # Errors
    ///
    /// As [`PatternSpec::new`].
    pub fn multi_field(name: &str, fields: Vec<FieldSpec>) -> Result<Self, PatternError> {
        Self::new(name, fields, MatchMode::MultiField)
    }

    /// A single-field nearest-match spec over `bits / unit_bits` units.
    ///
    /// # Errors
    ///
    /// As [`PatternSpec::new`].
    pub fn nearest(
        name: &str,
        bits: u32,
        unit_bits: u32,
        max_distance: u32,
    ) -> Result<Self, PatternError> {
        Self::new(
            name,
            vec![FieldSpec::new("word", bits)],
            MatchMode::Nearest {
                unit_bits,
                max_distance,
            },
        )
    }

    /// The canonical 5-tuple packet-classification spec: src/dst IPv4
    /// address, src/dst port, protocol, padded to a 128-bit key.
    ///
    /// # Panics
    ///
    /// Never: the shape is statically well-formed.
    #[must_use]
    pub fn five_tuple() -> Self {
        Self::multi_field(
            "packet-5tuple",
            vec![
                FieldSpec::new("src", 32),
                FieldSpec::new("dst", 32),
                FieldSpec::new("sport", 16),
                FieldSpec::new("dport", 16),
                FieldSpec::new("proto", 8),
                FieldSpec::new("pad", 24),
            ],
        )
        .expect("five-tuple spec is well-formed")
    }

    /// The canonical dictionary nearest-match spec: a `word_bytes`-byte
    /// word (≤ 16), byte units, spell-check style.
    ///
    /// # Panics
    ///
    /// Panics if `word_bytes` is 0 or > 16, or `max_distance` is outside
    /// `1..=word_bytes`.
    #[must_use]
    pub fn dictionary(word_bytes: u32, max_distance: u32) -> Self {
        Self::nearest("dictionary", word_bytes * 8, 8, max_distance)
            .expect("dictionary spec is well-formed")
    }

    /// The spec name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The fields, MSB-first.
    #[must_use]
    pub fn fields(&self) -> &[FieldSpec] {
        &self.fields
    }

    /// The match mode.
    #[must_use]
    pub fn mode(&self) -> MatchMode {
        self.mode
    }

    /// Total key width in bits.
    #[must_use]
    pub fn key_bits(&self) -> u32 {
        self.fields.iter().map(|f| f.bits).sum()
    }

    /// Whether the compiled table stores ternary (masked) keys.
    #[must_use]
    pub fn is_ternary(&self) -> bool {
        matches!(self.mode, MatchMode::Lpm | MatchMode::MultiField)
    }

    /// Lowest key-bit position of field `i` (fields pack MSB-first).
    fn field_low(&self, i: usize) -> u32 {
        self.fields[i + 1..].iter().map(|f| f.bits).sum()
    }

    /// Packs field-local values (spec field order) into one key value.
    ///
    /// # Errors
    ///
    /// [`PatternError::FieldCountMismatch`] or [`PatternError::ValueTooWide`].
    pub fn pack(&self, values: &[u128]) -> Result<u128, PatternError> {
        if values.len() != self.fields.len() {
            return Err(PatternError::FieldCountMismatch {
                got: values.len(),
                expected: self.fields.len(),
            });
        }
        let mut key = 0u128;
        for (i, (&v, f)) in values.iter().zip(&self.fields).enumerate() {
            if v > width_mask(f.bits) {
                return Err(PatternError::ValueTooWide { bits: f.bits });
            }
            key |= v << self.field_low(i);
        }
        Ok(key)
    }

    /// Lowers an entry pattern to the ternary keys to store. Every key of a
    /// multi-entry expansion represents the *same* logical entry and must be
    /// stored with the same data payload.
    ///
    /// # Errors
    ///
    /// Any [`PatternError`] the lowering rules produce (empty range,
    /// oversized expansion, mode mismatch, …).
    pub fn lower(&self, pattern: &Pattern) -> Result<Vec<TernaryKey>, PatternError> {
        let bits = self.key_bits();
        let masks = self.lower_masks(pattern)?;
        if !self.is_ternary() {
            if let Some((_, dc)) = masks.iter().find(|&&(_, dc)| dc != 0) {
                let _ = dc;
                return Err(PatternError::TernaryRequired {
                    pattern: pattern_kind(pattern),
                });
            }
        }
        Ok(masks
            .into_iter()
            .map(|(v, dc)| TernaryKey::ternary(v, dc, bits))
            .collect())
    }

    /// Lowers a query pattern to its ordered probe list (first hit wins).
    ///
    /// # Errors
    ///
    /// As [`PatternSpec::lower`], plus [`PatternError::ProbeBudgetExceeded`]
    /// and [`PatternError::DistanceTooFar`] for nearest-match ladders. In
    /// [`MatchMode::Exact`] mode the compiled table's hashed index cannot
    /// route masked probes, so only exact patterns are accepted
    /// ([`PatternError::TernaryRequired`] otherwise).
    pub fn lower_probes(&self, pattern: &Pattern) -> Result<Vec<SearchKey>, PatternError> {
        let bits = self.key_bits();
        if let Pattern::NearestMatch {
            value,
            max_distance,
        } = pattern
        {
            return self.nearest_probes(*value, *max_distance);
        }
        let masks = self.lower_masks(pattern)?;
        if matches!(self.mode, MatchMode::Exact) && masks.iter().any(|&(_, dc)| dc != 0) {
            return Err(PatternError::TernaryRequired {
                pattern: pattern_kind(pattern),
            });
        }
        if masks.len() > MAX_QUERY_PROBES {
            return Err(PatternError::ProbeBudgetExceeded {
                needed: masks.len() as u128,
                limit: MAX_QUERY_PROBES,
            });
        }
        Ok(masks
            .into_iter()
            .map(|(v, dc)| SearchKey::with_mask(v, dc, bits))
            .collect())
    }

    /// Shared (value, dont-care) lowering for every pattern kind except the
    /// nearest-match probe ladder.
    fn lower_masks(&self, pattern: &Pattern) -> Result<Vec<(u128, u128)>, PatternError> {
        let bits = self.key_bits();
        match pattern {
            Pattern::Exact { value } => {
                if *value > width_mask(bits) {
                    return Err(PatternError::ValueTooWide { bits });
                }
                Ok(vec![(*value, 0)])
            }
            Pattern::Prefix { value, len } => {
                if *len > bits {
                    return Err(PatternError::PrefixTooLong { len: *len, bits });
                }
                if *value > width_mask(bits) {
                    return Err(PatternError::ValueTooWide { bits });
                }
                Ok(vec![(*value, width_mask(bits - *len))])
            }
            Pattern::RangeViaPrefixExpansion { lo, hi } => prefix_cover(*lo, *hi, bits),
            Pattern::MaskedMultiField { fields } => self.multi_field_masks(fields),
            Pattern::NearestMatch { value, .. } => {
                if !matches!(self.mode, MatchMode::Nearest { .. }) {
                    return Err(PatternError::NearestUnsupported);
                }
                if *value > width_mask(bits) {
                    return Err(PatternError::ValueTooWide { bits });
                }
                // Entry side: the word is stored exactly; approximation is
                // entirely in the query ladder.
                Ok(vec![(*value, 0)])
            }
        }
    }

    /// Cross product of per-field covers, bounded by [`expansion_limit`].
    fn multi_field_masks(
        &self,
        fields: &[FieldPattern],
    ) -> Result<Vec<(u128, u128)>, PatternError> {
        if fields.len() != self.fields.len() {
            return Err(PatternError::FieldCountMismatch {
                got: fields.len(),
                expected: self.fields.len(),
            });
        }
        let limit = expansion_limit(self.key_bits());
        let mut per_field: Vec<Vec<(u128, u128)>> = Vec::with_capacity(fields.len());
        let mut needed: u128 = 1;
        for (i, fp) in fields.iter().enumerate() {
            let w = self.fields[i].bits;
            let cover = match *fp {
                FieldPattern::Any => vec![(0, width_mask(w))],
                FieldPattern::Exact(v) => {
                    if v > width_mask(w) {
                        return Err(PatternError::ValueTooWide { bits: w });
                    }
                    vec![(v, 0)]
                }
                FieldPattern::Prefix { value, len } => {
                    if len > w {
                        return Err(PatternError::PrefixTooLong { len, bits: w });
                    }
                    if value > width_mask(w) {
                        return Err(PatternError::ValueTooWide { bits: w });
                    }
                    vec![(value, width_mask(w - len))]
                }
                FieldPattern::Range { lo, hi } => prefix_cover(lo, hi, w)?,
            };
            needed = needed.saturating_mul(cover.len() as u128);
            if needed > limit as u128 {
                return Err(PatternError::ExpansionTooLarge { needed, limit });
            }
            per_field.push(cover);
        }
        // Cross product, field 0 outermost so entries come out in ascending
        // field-0-major order (deterministic for fixtures and tests).
        let mut out: Vec<(u128, u128)> = vec![(0, 0)];
        for (i, cover) in per_field.iter().enumerate() {
            let low = self.field_low(i);
            let mut next = Vec::with_capacity(out.len() * cover.len());
            for &(v_acc, dc_acc) in &out {
                for &(v, dc) in cover {
                    next.push((v_acc | (v << low), dc_acc | (dc << low)));
                }
            }
            out = next;
        }
        Ok(out)
    }

    /// The nearest-match distance ladder: the exact probe, then every
    /// combination of `k = 1..=distance` wildcarded units in
    /// increasing-distance order.
    fn nearest_probes(&self, value: u128, distance: u32) -> Result<Vec<SearchKey>, PatternError> {
        let MatchMode::Nearest {
            unit_bits,
            max_distance,
        } = self.mode
        else {
            return Err(PatternError::NearestUnsupported);
        };
        let bits = self.key_bits();
        if value > width_mask(bits) {
            return Err(PatternError::ValueTooWide { bits });
        }
        if distance > max_distance {
            return Err(PatternError::DistanceTooFar {
                requested: distance,
                max: max_distance,
            });
        }
        let units = bits / unit_bits;
        let needed: u128 = (0..=distance).map(|k| binomial(units, k)).sum();
        if needed > MAX_QUERY_PROBES as u128 {
            return Err(PatternError::ProbeBudgetExceeded {
                needed,
                limit: MAX_QUERY_PROBES,
            });
        }
        let mut probes = Vec::with_capacity(usize::try_from(needed).expect("≤ 256"));
        probes.push(SearchKey::new(value, bits));
        for k in 1..=distance {
            for_each_combination(units, k, &mut |chosen| {
                let mut dc = 0u128;
                for &u in chosen {
                    dc |= width_mask(unit_bits) << (u * unit_bits);
                }
                probes.push(SearchKey::with_mask(value, dc, bits));
            });
        }
        Ok(probes)
    }
}

/// Short kind name for error reporting.
fn pattern_kind(pattern: &Pattern) -> &'static str {
    match pattern {
        Pattern::Exact { .. } => "exact",
        Pattern::Prefix { .. } => "prefix",
        Pattern::RangeViaPrefixExpansion { .. } => "range",
        Pattern::MaskedMultiField { .. } => "masked-multi-field",
        Pattern::NearestMatch { .. } => "nearest-match",
    }
}

/// `C(n, k)` with saturation (probe budgets are tiny, but the input is
/// caller-controlled).
fn binomial(n: u32, k: u32) -> u128 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut acc: u128 = 1;
    for i in 0..k {
        acc = acc.saturating_mul(u128::from(n - i)) / u128::from(i + 1);
    }
    acc
}

/// Calls `f` with every size-`k` subset of `0..n`, in lexicographic order.
fn for_each_combination(n: u32, k: u32, f: &mut impl FnMut(&[u32])) {
    debug_assert!(k >= 1 && k <= n);
    let k = k as usize;
    let mut idx: Vec<u32> = (0..u32::try_from(k).expect("k ≤ 128")).collect();
    loop {
        f(&idx);
        // Advance to the next combination.
        let mut i = k;
        loop {
            if i == 0 {
                return;
            }
            i -= 1;
            let cap = n - u32::try_from(k - 1 - i).expect("fits");
            if idx[i] + 1 < cap {
                idx[i] += 1;
                for j in i + 1..k {
                    idx[j] = idx[j - 1] + 1;
                }
                break;
            }
        }
    }
}

/// The minimal aligned-prefix cover of the inclusive range `[lo, hi]` over
/// `bits`-bit values, as `(value, dont_care)` pairs in ascending order.
///
/// Edge cases are explicit: `lo > hi` is a typed [`PatternError::EmptyRange`]
/// (an empty match set would silently drop the rule), a single point lowers
/// to one binary entry, and the full domain lowers to one all-wildcard
/// entry. The cover is structurally at most `2·bits − 2` entries.
///
/// # Errors
///
/// [`PatternError::EmptyRange`] and [`PatternError::ValueTooWide`].
pub fn prefix_cover(lo: u128, hi: u128, bits: u32) -> Result<Vec<(u128, u128)>, PatternError> {
    let full = width_mask(bits);
    if lo > hi {
        return Err(PatternError::EmptyRange { lo, hi });
    }
    if hi > full {
        return Err(PatternError::ValueTooWide { bits });
    }
    if lo == 0 && hi == full {
        return Ok(vec![(0, full)]);
    }
    let mut out = Vec::new();
    let mut cur = lo;
    loop {
        // Largest aligned block starting at `cur` that stays within `hi`.
        let align = if cur == 0 {
            bits
        } else {
            cur.trailing_zeros().min(bits)
        };
        let mut k = align;
        while k > 0 && (cur | width_mask(k)) > hi {
            k -= 1;
        }
        out.push((cur, width_mask(k)));
        debug_assert!(out.len() <= expansion_limit(bits), "cover exceeded 2·W");
        let end = cur | width_mask(k);
        if end >= hi {
            break;
        }
        cur = end + 1;
    }
    Ok(out)
}

/// Table geometry the compiler targets; everything else (layout, index
/// generator, ternary storage) is derived from the spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GeometryHint {
    /// log2 of the row (bucket) count.
    pub rows_log2: u32,
    /// Record slots per row.
    pub slots_per_row: u32,
    /// Data payload width in bits (≤ 64).
    pub data_bits: u32,
}

impl Default for GeometryHint {
    fn default() -> Self {
        Self {
            rows_log2: 6,
            slots_per_row: 8,
            data_bits: 32,
        }
    }
}

/// The compiler's index-generator decision, kept as data so plans stay
/// [`Clone`] and fresh [`IndexGenerator`] boxes can be built on demand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IndexChoice {
    /// A contiguous [`RangeSelect`] field.
    Range {
        /// Lowest consumed bit.
        low: u32,
        /// Consumed bit count.
        count: u32,
    },
    /// A [`BitSelect`] over explicit positions.
    Bits {
        /// Selected key bit positions (index bit `i` ← key bit
        /// `positions[i]`).
        positions: Vec<u32>,
    },
    /// A [`DjbHash`] over the key bytes.
    Hash {
        /// Index width in bits.
        index_bits: u32,
        /// Hashed key bytes.
        key_bytes: u32,
    },
}

impl IndexChoice {
    /// Builds a fresh generator implementing this choice.
    #[must_use]
    pub fn build(&self) -> Box<dyn IndexGenerator> {
        match self {
            Self::Range { low, count } => Box::new(RangeSelect::new(*low, *count)),
            Self::Bits { positions } => Box::new(BitSelect::new(positions.clone())),
            Self::Hash {
                index_bits,
                key_bytes,
            } => Box::new(DjbHash::new(*index_bits, *key_bytes)),
        }
    }
}

/// A compiled pattern spec: concrete table configuration plus the lowering
/// context needed to turn [`Pattern`]s into entries and query plans.
#[derive(Debug, Clone)]
pub struct CompiledPlan {
    spec: PatternSpec,
    index: IndexChoice,
    config: TableConfig,
}

/// Lowers `spec` onto a concrete CA-RAM configuration.
///
/// Storage is ternary exactly when the mode needs masks
/// ([`MatchMode::Lpm`] / [`MatchMode::MultiField`]); the index generator
/// and the overflow probe order are chosen per mode (see the module docs).
/// [`MatchMode::MultiField`] gets [`ProbePolicy::SecondHash`]: its homes,
/// concentrated by the round-robin index bits, would merge into one long
/// spill cluster under linear probing. [`MatchMode::Lpm`] keeps
/// [`ProbePolicy::Linear`], the one chain order that
/// [`CaRamTable::insert_sorted`] keeps sorted for online route updates.
/// `hint.rows_log2` becomes the index width.
///
/// # Errors
///
/// [`PatternError::BadSpec`] when the geometry is unsatisfiable (index
/// wider than the key or > 20 bits, zero slots, data > 64 bits).
pub fn compile(spec: &PatternSpec, hint: &GeometryHint) -> Result<CompiledPlan, PatternError> {
    let bits = spec.key_bits();
    let index_bits = hint.rows_log2;
    if index_bits == 0 || index_bits > bits || index_bits > 20 {
        return Err(PatternError::BadSpec(format!(
            "index width {index_bits} unsatisfiable for a {bits}-bit key"
        )));
    }
    if hint.slots_per_row == 0 {
        return Err(PatternError::BadSpec("zero slots per row".into()));
    }
    if hint.data_bits > MAX_DATA_BITS {
        return Err(PatternError::BadSpec(format!(
            "data width {} exceeds {MAX_DATA_BITS} bits",
            hint.data_bits
        )));
    }
    let (index, probe) = match spec.mode() {
        MatchMode::Exact => (
            IndexChoice::Hash {
                index_bits,
                key_bytes: bits.div_ceil(8),
            },
            ProbePolicy::Linear,
        ),
        MatchMode::Lpm => (
            IndexChoice::Range {
                low: bits - index_bits,
                count: index_bits,
            },
            ProbePolicy::Linear,
        ),
        MatchMode::MultiField => (
            IndexChoice::Bits {
                positions: multi_field_positions(spec, index_bits),
            },
            ProbePolicy::SecondHash,
        ),
        MatchMode::Nearest { unit_bits, .. } => (
            IndexChoice::Bits {
                positions: nearest_positions(bits, unit_bits, index_bits),
            },
            ProbePolicy::Linear,
        ),
    };
    let layout = RecordLayout::new(bits, spec.is_ternary(), hint.data_bits);
    let row_bits = hint.slots_per_row * layout.slot_bits();
    let config = TableConfig {
        probe,
        ..TableConfig::single_slice(hint.rows_log2, row_bits, layout)
    };
    Ok(CompiledPlan {
        spec: spec.clone(),
        index,
        config,
    })
}

/// Index positions for multi-field mode: round-robin the most-significant
/// bits of every field, so a rule wildcarding one whole field loses few
/// index bits (duplicates into few home buckets).
fn multi_field_positions(spec: &PatternSpec, index_bits: u32) -> Vec<u32> {
    let n = spec.fields().len();
    let mut positions = Vec::with_capacity(index_bits as usize);
    let mut pass = 0u32;
    while positions.len() < index_bits as usize {
        for i in 0..n {
            let f = &spec.fields()[i];
            if pass < f.bits {
                positions.push(spec.field_low(i) + f.bits - 1 - pass);
                if positions.len() == index_bits as usize {
                    break;
                }
            }
        }
        pass += 1;
    }
    positions
}

/// Index positions for nearest mode: one bit per unit, round-robin, so a
/// probe wildcarding `d` units overlaps at most
/// `d · ceil(index_bits / units)` index bits.
fn nearest_positions(bits: u32, unit_bits: u32, index_bits: u32) -> Vec<u32> {
    let units = bits / unit_bits;
    let mut positions = Vec::with_capacity(index_bits as usize);
    let mut pass = 0u32;
    while positions.len() < index_bits as usize {
        for u in 0..units {
            if pass < unit_bits {
                positions.push(u * unit_bits + unit_bits - 1 - pass);
                if positions.len() == index_bits as usize {
                    break;
                }
            }
        }
        pass += 1;
    }
    positions
}

impl CompiledPlan {
    /// The spec this plan was compiled from.
    #[must_use]
    pub fn spec(&self) -> &PatternSpec {
        &self.spec
    }

    /// The compiler's index-generator decision.
    #[must_use]
    pub fn index(&self) -> &IndexChoice {
        &self.index
    }

    /// The concrete table configuration.
    #[must_use]
    pub fn config(&self) -> &TableConfig {
        &self.config
    }

    /// Builds a fresh table implementing this plan.
    ///
    /// # Errors
    ///
    /// As [`CaRamTable::new`].
    pub fn build_table(&self) -> crate::error::Result<CaRamTable> {
        CaRamTable::new(self.config.clone(), self.index.build())
    }

    /// Lowers an entry pattern to the records to store, all carrying
    /// `data`. Multi-entry expansions share the one payload by
    /// construction, so the logical entry reports one value no matter
    /// which expansion entry wins a lookup.
    ///
    /// # Errors
    ///
    /// As [`PatternSpec::lower`], plus [`PatternError::DataTooWide`].
    pub fn lower_entry(&self, pattern: &Pattern, data: u64) -> Result<Vec<Record>, PatternError> {
        let data_bits = self.config.layout.data_bits();
        if data_bits < 64 && data >= 1u64 << data_bits {
            return Err(PatternError::DataTooWide { data_bits });
        }
        Ok(self
            .spec
            .lower(pattern)?
            .into_iter()
            .map(|k| Record::new(k, data))
            .collect())
    }

    /// Lowers a query pattern to an executable probe plan.
    ///
    /// # Errors
    ///
    /// As [`PatternSpec::lower_probes`].
    pub fn lower_query(&self, pattern: &Pattern) -> Result<QueryPlan, PatternError> {
        Ok(QueryPlan {
            probes: self.spec.lower_probes(pattern)?,
        })
    }
}

/// An ordered multi-probe query plan; the first probe that hits wins
/// (probes are ordered most-specific / nearest first by construction).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryPlan {
    probes: Vec<SearchKey>,
}

impl QueryPlan {
    /// Wraps explicit probes into a plan (normally built by
    /// [`CompiledPlan::lower_query`]).
    #[must_use]
    pub fn new(probes: Vec<SearchKey>) -> Self {
        Self { probes }
    }

    /// The probes, in priority order.
    #[must_use]
    pub fn probes(&self) -> &[SearchKey] {
        &self.probes
    }

    /// Executes the plan against an engine: probes in order, first hit
    /// wins, memory accesses summed across every probe issued.
    #[must_use]
    pub fn execute(&self, engine: &dyn SearchEngine) -> EngineOutcome {
        let mut accesses = 0u32;
        for probe in &self.probes {
            let o = engine.search(probe);
            accesses = accesses.saturating_add(o.memory_accesses);
            if o.hit.is_some() {
                return EngineOutcome {
                    hit: o.hit,
                    memory_accesses: accesses,
                };
            }
        }
        EngineOutcome::miss(accesses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cover(lo: u128, hi: u128, bits: u32) -> Vec<(u128, u128)> {
        prefix_cover(lo, hi, bits).expect("valid range")
    }

    #[test]
    fn empty_range_is_a_typed_error() {
        assert_eq!(
            prefix_cover(5, 4, 16),
            Err(PatternError::EmptyRange { lo: 5, hi: 4 })
        );
    }

    #[test]
    fn single_point_range_is_one_binary_entry() {
        assert_eq!(cover(42, 42, 16), vec![(42, 0)]);
        assert_eq!(cover(0, 0, 16), vec![(0, 0)]);
        assert_eq!(cover(0xFFFF, 0xFFFF, 16), vec![(0xFFFF, 0)]);
    }

    #[test]
    fn full_domain_range_is_one_wildcard_entry() {
        assert_eq!(cover(0, 0xFFFF, 16), vec![(0, 0xFFFF)]);
        assert_eq!(cover(0, u128::MAX, 128), vec![(0, u128::MAX)]);
        assert_eq!(cover(0, 1, 1), vec![(0, 1)]);
    }

    #[test]
    fn out_of_domain_bound_rejected() {
        assert_eq!(
            prefix_cover(0, 0x1_0000, 16),
            Err(PatternError::ValueTooWide { bits: 16 })
        );
    }

    #[test]
    fn cover_is_exact_and_minimal_on_small_domains() {
        // Brute force every range over an 8-bit domain: the cover matches
        // exactly the range members and nothing else.
        for lo in (0u128..256).step_by(7) {
            for hi in (lo..256).step_by(5) {
                let c = cover(lo, hi, 8);
                assert!(c.len() <= expansion_limit(8));
                for v in 0u128..256 {
                    let covered = c.iter().any(|&(val, dc)| v & !dc == val);
                    assert_eq!(covered, (lo..=hi).contains(&v), "[{lo},{hi}] at {v}");
                }
                // Entries are disjoint: each value is covered once.
                for v in lo..=hi {
                    let n = c.iter().filter(|&&(val, dc)| v & !dc == val).count();
                    assert_eq!(n, 1, "[{lo},{hi}] covers {v} {n} times");
                }
            }
        }
    }

    #[test]
    fn worst_case_cover_is_bounded_by_2w() {
        // [1, 2^W - 2] is the classic worst case: 2·W − 2 entries.
        let c = cover(1, 0xFFFE, 16);
        assert_eq!(c.len(), 2 * 16 - 2);
        assert!(c.len() <= expansion_limit(16));
        let c = cover(1, u128::MAX - 1, 128);
        assert_eq!(c.len(), 2 * 128 - 2);
    }

    #[test]
    fn cross_product_explosion_is_a_typed_error() {
        let spec = PatternSpec::multi_field(
            "two-ports",
            vec![FieldSpec::new("a", 16), FieldSpec::new("b", 16)],
        )
        .unwrap();
        // Each range expands to 30 entries; 30 × 30 = 900 > 2·32 = 64.
        let err = spec
            .lower(&Pattern::MaskedMultiField {
                fields: vec![
                    FieldPattern::Range { lo: 1, hi: 0xFFFE },
                    FieldPattern::Range { lo: 1, hi: 0xFFFE },
                ],
            })
            .unwrap_err();
        assert!(matches!(
            err,
            PatternError::ExpansionTooLarge { limit: 64, .. }
        ));
    }

    #[test]
    fn multi_field_lowering_places_fields_msb_first() {
        let spec = PatternSpec::multi_field(
            "pair",
            vec![FieldSpec::new("hi", 8), FieldSpec::new("lo", 8)],
        )
        .unwrap();
        let keys = spec
            .lower(&Pattern::MaskedMultiField {
                fields: vec![FieldPattern::Exact(0xAB), FieldPattern::Any],
            })
            .unwrap();
        assert_eq!(keys, vec![TernaryKey::ternary(0xAB00, 0x00FF, 16)]);
        assert_eq!(spec.pack(&[0xAB, 0xCD]).unwrap(), 0xABCD);
    }

    #[test]
    fn field_count_mismatch_rejected() {
        let spec = PatternSpec::five_tuple();
        let err = spec
            .lower(&Pattern::MaskedMultiField {
                fields: vec![FieldPattern::Any],
            })
            .unwrap_err();
        assert_eq!(
            err,
            PatternError::FieldCountMismatch {
                got: 1,
                expected: 6
            }
        );
    }

    #[test]
    fn binary_modes_reject_masked_entries() {
        let spec = PatternSpec::exact("x", 32).unwrap();
        let err = spec
            .lower(&Pattern::Prefix {
                value: 0xA000_0000,
                len: 8,
            })
            .unwrap_err();
        assert_eq!(err, PatternError::TernaryRequired { pattern: "prefix" });
        // A full-care "prefix" is fine: no mask needed.
        let keys = spec
            .lower(&Pattern::Prefix {
                value: 0xA000_0000,
                len: 32,
            })
            .unwrap();
        assert_eq!(keys, vec![TernaryKey::binary(0xA000_0000, 32)]);
    }

    #[test]
    fn lpm_spec_lowers_prefixes_like_the_hand_rolled_path() {
        let spec = PatternSpec::lpm("ipv4", 32).unwrap();
        let keys = spec
            .lower(&Pattern::Prefix {
                value: 0xC0A8_0000,
                len: 16,
            })
            .unwrap();
        assert_eq!(keys, vec![TernaryKey::ternary(0xC0A8_0000, 0xFFFF, 32)]);
        // Degenerate lengths.
        assert_eq!(
            spec.lower(&Pattern::Prefix { value: 0, len: 0 }).unwrap(),
            vec![TernaryKey::ternary(0, 0xFFFF_FFFF, 32)]
        );
        assert_eq!(
            spec.lower(&Pattern::Prefix { value: 7, len: 33 })
                .unwrap_err(),
            PatternError::PrefixTooLong { len: 33, bits: 32 }
        );
    }

    #[test]
    fn nearest_ladder_orders_by_distance_and_bounds_probes() {
        let spec = PatternSpec::dictionary(4, 2);
        let probes = spec
            .lower_probes(&Pattern::NearestMatch {
                value: 0x6162_6364,
                max_distance: 2,
            })
            .unwrap();
        // 1 exact + C(4,1) + C(4,2) = 1 + 4 + 6.
        assert_eq!(probes.len(), 11);
        assert_eq!(probes[0].dont_care(), 0);
        assert!(probes[1..5].iter().all(|p| p.dont_care().count_ones() == 8));
        assert!(probes[5..].iter().all(|p| p.dont_care().count_ones() == 16));
        // Distance ladder respects the spec maximum.
        assert_eq!(
            spec.lower_probes(&Pattern::NearestMatch {
                value: 0,
                max_distance: 3
            })
            .unwrap_err(),
            PatternError::DistanceTooFar {
                requested: 3,
                max: 2
            }
        );
        // A 16-unit key at distance 3 would need 1 + 16 + 120 + 560 probes.
        let wide = PatternSpec::nearest("w", 128, 8, 3).unwrap();
        let err = wide
            .lower_probes(&Pattern::NearestMatch {
                value: 0,
                max_distance: 3,
            })
            .unwrap_err();
        assert!(matches!(err, PatternError::ProbeBudgetExceeded { .. }));
    }

    #[test]
    fn nearest_requires_nearest_mode() {
        let spec = PatternSpec::lpm("ipv4", 32).unwrap();
        assert_eq!(
            spec.lower_probes(&Pattern::NearestMatch {
                value: 0,
                max_distance: 1
            })
            .unwrap_err(),
            PatternError::NearestUnsupported
        );
    }

    #[test]
    fn compile_picks_mode_appropriate_index_generators() {
        let hint = GeometryHint::default();
        let exact = compile(&PatternSpec::exact("e", 64).unwrap(), &hint).unwrap();
        assert_eq!(
            *exact.index(),
            IndexChoice::Hash {
                index_bits: 6,
                key_bytes: 8
            }
        );
        let lpm = compile(&PatternSpec::lpm("l", 32).unwrap(), &hint).unwrap();
        assert_eq!(*lpm.index(), IndexChoice::Range { low: 26, count: 6 });
        let mf = compile(&PatternSpec::five_tuple(), &hint).unwrap();
        // Round-robin over field tops: src, dst, sport, dport, proto, pad.
        assert_eq!(
            *mf.index(),
            IndexChoice::Bits {
                positions: vec![127, 95, 63, 47, 31, 23]
            }
        );
        let near = compile(&PatternSpec::dictionary(4, 1), &hint).unwrap();
        // One bit per byte unit, then wrap: units 0..4 top bits, unit 0/1
        // second bits.
        assert_eq!(
            *near.index(),
            IndexChoice::Bits {
                positions: vec![7, 15, 23, 31, 6, 14]
            }
        );
    }

    #[test]
    fn compile_picks_strided_probing_for_rule_tables_only() {
        let hint = GeometryHint::default();
        let probe = |spec: &PatternSpec| compile(spec, &hint).unwrap().config().probe;
        assert_eq!(
            probe(&PatternSpec::five_tuple()),
            ProbePolicy::SecondHash,
            "rule tables must not merge their spills into one linear cluster"
        );
        assert_eq!(
            probe(&PatternSpec::exact("e", 64).unwrap()),
            ProbePolicy::Linear
        );
        assert_eq!(
            probe(&PatternSpec::lpm("l", 32).unwrap()),
            ProbePolicy::Linear,
            "online sorted route updates need one chain order"
        );
        assert_eq!(probe(&PatternSpec::dictionary(4, 1)), ProbePolicy::Linear);
    }

    #[test]
    fn compile_rejects_unsatisfiable_geometry() {
        let spec = PatternSpec::exact("e", 8).unwrap();
        assert!(compile(
            &spec,
            &GeometryHint {
                rows_log2: 9,
                ..GeometryHint::default()
            }
        )
        .is_err());
        assert!(compile(
            &spec,
            &GeometryHint {
                data_bits: 65,
                ..GeometryHint::default()
            }
        )
        .is_err());
    }

    #[test]
    fn compiled_plan_round_trips_entries_and_queries() {
        let spec = PatternSpec::lpm("ipv4", 32).unwrap();
        let plan = compile(&spec, &GeometryHint::default()).unwrap();
        let mut table = plan.build_table().unwrap();
        let recs = plan
            .lower_entry(
                &Pattern::RangeViaPrefixExpansion {
                    lo: 0x0A00_0003,
                    hi: 0x0A00_0009,
                },
                7,
            )
            .unwrap();
        assert!(recs.len() > 1);
        for r in &recs {
            table.insert_sorted(*r).unwrap();
        }
        for v in 0x0A00_0003u128..=0x0A00_0009 {
            let q = plan.lower_query(&Pattern::Exact { value: v }).unwrap();
            let o = q.execute(&table);
            assert_eq!(o.hit.map(|h| h.data), Some(7), "value {v:#x}");
        }
        let q = plan
            .lower_query(&Pattern::Exact { value: 0x0A00_000A })
            .unwrap();
        assert!(q.execute(&table).hit.is_none());
    }

    #[test]
    fn data_too_wide_rejected() {
        let plan = compile(
            &PatternSpec::exact("e", 32).unwrap(),
            &GeometryHint::default(),
        )
        .unwrap();
        assert_eq!(
            plan.lower_entry(&Pattern::Exact { value: 1 }, 1 << 40)
                .unwrap_err(),
            PatternError::DataTooWide { data_bits: 32 }
        );
    }

    #[test]
    fn spec_validation_rejects_degenerate_shapes() {
        assert!(PatternSpec::exact("z", 0).is_err());
        assert!(PatternSpec::multi_field("none", vec![]).is_err());
        assert!(PatternSpec::new(
            "wide",
            vec![FieldSpec::new("a", 100), FieldSpec::new("b", 29)],
            MatchMode::MultiField
        )
        .is_err());
        assert!(PatternSpec::nearest("n", 64, 7, 1).is_err()); // 7 ∤ 64
        assert!(PatternSpec::nearest("n", 64, 8, 0).is_err());
        assert!(PatternSpec::nearest("n", 64, 8, 9).is_err());
    }

    #[test]
    fn combinations_are_lexicographic_and_complete() {
        let mut seen = Vec::new();
        for_each_combination(5, 3, &mut |c| seen.push(c.to_vec()));
        assert_eq!(seen.len(), 10);
        assert_eq!(seen[0], vec![0, 1, 2]);
        assert_eq!(seen[9], vec![2, 3, 4]);
        assert!(seen.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(binomial(5, 3), 10);
        assert_eq!(binomial(16, 2), 120);
        assert_eq!(binomial(3, 9), 0);
    }
}
