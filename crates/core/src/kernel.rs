//! Runtime-dispatched lane-compare kernels for the match processors.
//!
//! The paper's match step compares every candidate key of a fetched row
//! *in parallel* (Sec. 3.1). On the simulator side the analogue is SIMD:
//! a bucket whose slots are word-aligned is compared 128 or 256 stored
//! bits at a time with explicit `core::arch` intrinsics, selected at
//! runtime from what the host CPU supports. A chunked-`u64` portable
//! loop remains compiled in unconditionally — it is the source of truth
//! the oracle replays against, the fallback for hosts without SIMD, and
//! the `--no-default-features` build's only kernel.
//!
//! The kernels cover two slot shapes: one 64-bit word per slot and binary
//! 128-bit word pairs. Every other shape (the 96-bit kv and dictionary
//! slots, the 288-bit five-tuple slots) takes no kernel: under every
//! flavour its occupied slots go through
//! [`RecordLayout::key_matches`](crate::layout::RecordLayout::key_matches),
//! one compare over unaligned 64-bit windows of the key and don't-care
//! fields that rejects a wide key on its top 64 bits first.
//!
//! Dispatch rules (see DESIGN.md §15):
//!
//! 1. compile-time: the `simd` cargo feature gates every intrinsic path;
//!    without it only [`Kernel::Scalar`] exists;
//! 2. runtime: [`detect`] probes the CPU once (AVX2 → 256-bit lanes,
//!    SSE4.1 → 128-bit lanes on x86-64; NEON is baseline on aarch64);
//! 3. override: [`force_kernel`] (tests, differential fuzzing) and the
//!    `CA_RAM_KERNEL` environment variable (`scalar` / `128` / `256`)
//!    select a kernel explicitly, clamped to what the host supports;
//! 4. capture: a [`MatchProcessorBank`](crate::matchproc::MatchProcessorBank)
//!    samples [`active_kernel`] at construction and keeps it for life, so
//!    a table built under a forced kernel stays on that kernel even after
//!    the force is released — scalar and SIMD engines can coexist in one
//!    process for lockstep comparison.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// A compare-kernel flavour: how many stored bits one compare step covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Kernel {
    /// Portable chunked-`u64` loop; always available, oracle ground truth.
    Scalar,
    /// 128-bit lanes (SSE4.1 on x86-64, NEON on aarch64).
    Lanes128,
    /// 256-bit lanes (AVX2 on x86-64).
    Lanes256,
}

impl Kernel {
    /// Human-readable name, as printed by benches and accepted by
    /// `CA_RAM_KERNEL`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Scalar => "scalar",
            Kernel::Lanes128 => "128",
            Kernel::Lanes256 => "256",
        }
    }

    fn rank(self) -> u8 {
        match self {
            Kernel::Scalar => 1,
            Kernel::Lanes128 => 2,
            Kernel::Lanes256 => 3,
        }
    }

    fn from_rank(rank: u8) -> Option<Kernel> {
        match rank {
            1 => Some(Kernel::Scalar),
            2 => Some(Kernel::Lanes128),
            3 => Some(Kernel::Lanes256),
            _ => None,
        }
    }
}

/// Process-wide kernel override: 0 = unset, otherwise `Kernel::rank`.
static FORCE: AtomicU8 = AtomicU8::new(0);

/// Probes the host CPU and returns the widest kernel it supports.
///
/// Without the `simd` cargo feature this is always [`Kernel::Scalar`].
#[must_use]
pub fn detect() -> Kernel {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return Kernel::Lanes256;
        }
        if std::arch::is_x86_feature_detected!("sse4.1") {
            return Kernel::Lanes128;
        }
    }
    // NEON is architecturally guaranteed on aarch64.
    #[cfg(all(feature = "simd", target_arch = "aarch64"))]
    {
        return Kernel::Lanes128;
    }
    #[allow(unreachable_code)]
    Kernel::Scalar
}

/// Every kernel the host can actually run, narrowest first.
#[must_use]
pub fn available() -> Vec<Kernel> {
    let widest = detect();
    [Kernel::Scalar, Kernel::Lanes128, Kernel::Lanes256]
        .into_iter()
        .filter(|k| k.rank() <= widest.rank())
        .collect()
}

fn env_kernel() -> Option<Kernel> {
    static ENV: OnceLock<Option<Kernel>> = OnceLock::new();
    *ENV.get_or_init(|| match std::env::var("CA_RAM_KERNEL") {
        Ok(v) => match v.as_str() {
            "scalar" => Some(Kernel::Scalar),
            "128" => Some(Kernel::Lanes128),
            "256" => Some(Kernel::Lanes256),
            other => {
                eprintln!(
                    "CA_RAM_KERNEL={other:?} not recognized \
                     (expected scalar, 128, or 256); using auto-detection"
                );
                None
            }
        },
        Err(_) => None,
    })
}

/// Clamps a requested kernel to what the host supports: asking for wider
/// lanes than the CPU has falls back to the widest available, never to a
/// kernel that would fault.
fn clamp(requested: Kernel) -> Kernel {
    requested.min(detect())
}

/// The kernel new match-processor banks will capture: the forced kernel
/// if one is set, else the `CA_RAM_KERNEL` environment override, else
/// [`detect`] — always clamped to what the host supports.
#[must_use]
pub fn active_kernel() -> Kernel {
    if let Some(k) = Kernel::from_rank(FORCE.load(Ordering::Relaxed)) {
        return clamp(k);
    }
    if let Some(k) = env_kernel() {
        return clamp(k);
    }
    detect()
}

/// Sets (or with `None` clears) the process-wide kernel override.
///
/// Affects only banks constructed afterwards; existing banks keep the
/// kernel they captured. Prefer [`with_forced`] in tests so the override
/// cannot leak.
pub fn force_kernel(kernel: Option<Kernel>) {
    FORCE.store(kernel.map_or(0, Kernel::rank), Ordering::Relaxed);
}

/// Runs `f` with the kernel override set to `kernel`, restoring the
/// previous override afterwards (also on panic). Tables built inside `f`
/// keep the forced kernel for their whole life — this is how the
/// differential harness builds a scalar twin of a SIMD engine.
pub fn with_forced<T>(kernel: Kernel, f: impl FnOnce() -> T) -> T {
    struct Restore(u8);
    impl Drop for Restore {
        fn drop(&mut self) {
            FORCE.store(self.0, Ordering::Relaxed);
        }
    }
    let _restore = Restore(FORCE.swap(kernel.rank(), Ordering::Relaxed));
    f()
}

/// A resolved word-1 compare routine (the signature of [`word1_bits`]
/// minus the kernel selector).
pub(crate) type Word1Fn = fn(&[u64], u64, u64, u32, bool) -> u64;

/// A resolved word-2 compare routine (the signature of
/// [`word2_binary_bits`] minus the kernel selector).
pub(crate) type Word2Fn = fn(&[u64], u64, u64, u64, u64) -> u64;

/// Resolves `kernel` to a direct word-1 routine. The CPU feature test
/// runs once, here, when the pointer is handed out — features cannot
/// disappear afterwards — so per-row calls through the pointer skip both
/// the dispatch match and the feature re-check of [`word1_bits`]. Banks
/// capture the pointer at construction (see
/// [`crate::matchproc::MatchProcessorBank::with_kernel`]).
pub(crate) fn word1_fn(kernel: Kernel) -> Word1Fn {
    match kernel {
        Kernel::Scalar => word1_scalar,
        Kernel::Lanes128 => {
            #[cfg(all(feature = "simd", target_arch = "x86_64"))]
            if std::arch::is_x86_feature_detected!("sse4.1") {
                // SAFETY: SSE4.1 presence was just verified.
                return |w, sv, sc, kb, t| unsafe { x86::word1_sse41(w, sv, sc, kb, t) };
            }
            #[cfg(all(feature = "simd", target_arch = "aarch64"))]
            // SAFETY: NEON is baseline on aarch64.
            return |w, sv, sc, kb, t| unsafe { arm::word1_neon(w, sv, sc, kb, t) };
            #[allow(unreachable_code)]
            word1_scalar
        }
        Kernel::Lanes256 => {
            #[cfg(all(feature = "simd", target_arch = "x86_64"))]
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: AVX2 presence was just verified.
                return |w, sv, sc, kb, t| unsafe { x86::word1_avx2(w, sv, sc, kb, t) };
            }
            word1_fn(Kernel::Lanes128)
        }
    }
}

/// A resolved *fused* word-1 routine: compare-and-priority-encode in one
/// pass, returning the lowest occupied matching slot. This is the lane
/// analogue of the hardware's fused match-line/priority-encoder stage:
/// the SIMD variants broadcast the search operands once, then walk the
/// row one vector at a time, masking each vector's match bits with the
/// occupancy bitmap and returning as soon as any survive — an early exit
/// at vector granularity with none of the per-group re-setup the bitmap
/// routines pay.
pub(crate) type Word1FirstFn = fn(&[u64], u64, u64, u64, u32, bool) -> Option<u32>;

/// Resolves `kernel` to a fused word-1 first-hit routine (same dispatch
/// rules as [`word1_fn`]). The `Scalar` resolution deliberately keeps the
/// 16-slot-group shape of the portable bitmap path — the scalar kernel is
/// the reference implementation, not a tuning target.
pub(crate) fn word1_first_fn(kernel: Kernel) -> Word1FirstFn {
    match kernel {
        Kernel::Scalar => word1_first_scalar,
        Kernel::Lanes128 => {
            #[cfg(all(feature = "simd", target_arch = "x86_64"))]
            if std::arch::is_x86_feature_detected!("sse4.1") {
                // SAFETY: SSE4.1 presence was just verified.
                return |w, occ, sv, sc, kb, t| unsafe {
                    x86::word1_first_sse41(w, occ, sv, sc, kb, t)
                };
            }
            #[cfg(all(feature = "simd", target_arch = "aarch64"))]
            // SAFETY: NEON is baseline on aarch64.
            return |w, occ, sv, sc, kb, t| unsafe { arm::word1_first_neon(w, occ, sv, sc, kb, t) };
            #[allow(unreachable_code)]
            word1_first_scalar
        }
        Kernel::Lanes256 => {
            #[cfg(all(feature = "simd", target_arch = "x86_64"))]
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: AVX2 presence was just verified.
                return |w, occ, sv, sc, kb, t| unsafe {
                    x86::word1_first_avx2(w, occ, sv, sc, kb, t)
                };
            }
            word1_first_fn(Kernel::Lanes128)
        }
    }
}

/// Portable fused first-hit: the same 16-slot groups the scalar
/// `first_match` path has always walked, with the occupancy mask applied
/// per group and an early exit on the first surviving match bit.
fn word1_first_scalar(
    words: &[u64],
    occ: u64,
    sv: u64,
    sc: u64,
    key_bits: u32,
    ternary: bool,
) -> Option<u32> {
    let mut base = 0usize;
    while base < words.len() {
        let count = (words.len() - base).min(16);
        // Branchless sub-64-bit mask: count is in 1..=64.
        let group_occ = (occ >> base) & (u64::MAX >> (64 - count));
        if group_occ != 0 {
            let bits =
                word1_scalar(&words[base..base + count], sv, sc, key_bits, ternary) & group_occ;
            if bits != 0 {
                #[allow(clippy::cast_possible_truncation)]
                return Some(base as u32 + bits.trailing_zeros());
            }
        }
        base += count;
    }
    None
}

/// Word-2 twin of [`word1_fn`].
pub(crate) fn word2_fn(kernel: Kernel) -> Word2Fn {
    match kernel {
        Kernel::Scalar => word2_scalar,
        Kernel::Lanes128 => {
            #[cfg(all(feature = "simd", target_arch = "x86_64"))]
            if std::arch::is_x86_feature_detected!("sse4.1") {
                // SAFETY: SSE4.1 presence was just verified.
                return |w, lo, hi, cl, ch| unsafe { x86::word2_sse41(w, lo, hi, cl, ch) };
            }
            #[cfg(all(feature = "simd", target_arch = "aarch64"))]
            // SAFETY: NEON is baseline on aarch64.
            return |w, lo, hi, cl, ch| unsafe { arm::word2_neon(w, lo, hi, cl, ch) };
            #[allow(unreachable_code)]
            word2_scalar
        }
        Kernel::Lanes256 => {
            #[cfg(all(feature = "simd", target_arch = "x86_64"))]
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: AVX2 presence was just verified.
                return |w, lo, hi, cl, ch| unsafe { x86::word2_avx2(w, lo, hi, cl, ch) };
            }
            word2_fn(Kernel::Lanes128)
        }
    }
}

/// Portable reference for [`word1_bits`]; also the tail loop of the SIMD
/// paths. Written branchless-per-slot so autovectorization has a shot
/// even on the `Scalar` kernel.
fn word1_scalar(words: &[u64], sv: u64, sc: u64, key_bits: u32, ternary: bool) -> u64 {
    let mut bits = 0u64;
    if ternary {
        for (i, &w) in words.iter().enumerate() {
            let care = sc & !(w >> key_bits);
            bits |= u64::from((w ^ sv) & care == 0) << i;
        }
    } else {
        for (i, &w) in words.iter().enumerate() {
            bits |= u64::from((w ^ sv) & sc == 0) << i;
        }
    }
    bits
}

/// Portable reference for [`word2_binary_bits`]; also the SIMD tail loop.
#[allow(clippy::similar_names)] // sv/sc: search value vs search care
fn word2_scalar(words: &[u64], sv_lo: u64, sv_hi: u64, sc_lo: u64, sc_hi: u64) -> u64 {
    let mut bits = 0u64;
    for (j, pair) in words.chunks_exact(2).enumerate() {
        let lo = (pair[0] ^ sv_lo) & sc_lo;
        let hi = (pair[1] ^ sv_hi) & sc_hi;
        bits |= u64::from(lo | hi == 0) << j;
    }
    bits
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
// sv/sc: search value vs search care; unaligned vector loads are the
// point of `loadu`.
#[allow(clippy::similar_names, clippy::cast_ptr_alignment)]
mod x86 {
    use super::{word1_scalar, word2_scalar};
    use core::arch::x86_64::{
        __m128i, __m256i, _mm256_and_si256, _mm256_andnot_si256, _mm256_castsi256_pd,
        _mm256_cmpeq_epi64, _mm256_loadu_si256, _mm256_movemask_pd, _mm256_set1_epi64x,
        _mm256_set_epi64x, _mm256_setzero_si256, _mm256_srl_epi64, _mm256_xor_si256, _mm_and_si128,
        _mm_andnot_si128, _mm_castsi128_pd, _mm_cmpeq_epi64, _mm_cvtsi32_si128, _mm_loadu_si128,
        _mm_movemask_pd, _mm_set1_epi64x, _mm_set_epi64x, _mm_setzero_si128, _mm_srl_epi64,
        _mm_xor_si128,
    };

    #[allow(clippy::cast_possible_wrap, clippy::cast_sign_loss)]
    #[target_feature(enable = "avx2")]
    pub unsafe fn word1_avx2(words: &[u64], sv: u64, sc: u64, key_bits: u32, ternary: bool) -> u64 {
        let sv_v = _mm256_set1_epi64x(sv as i64);
        let sc_v = _mm256_set1_epi64x(sc as i64);
        let shift = _mm_cvtsi32_si128(key_bits as i32);
        let zero = _mm256_setzero_si256();
        let mut bits = 0u64;
        let mut i = 0usize;
        while i + 4 <= words.len() {
            let w = _mm256_loadu_si256(words.as_ptr().add(i).cast::<__m256i>());
            let care = if ternary {
                _mm256_andnot_si256(_mm256_srl_epi64(w, shift), sc_v)
            } else {
                sc_v
            };
            let m = _mm256_and_si256(_mm256_xor_si256(w, sv_v), care);
            let eq = _mm256_cmpeq_epi64(m, zero);
            bits |= u64::from(_mm256_movemask_pd(_mm256_castsi256_pd(eq)) as u32) << i;
            i += 4;
        }
        if i < words.len() {
            bits |= word1_scalar(&words[i..], sv, sc, key_bits, ternary) << i;
        }
        bits
    }

    #[allow(clippy::cast_possible_wrap, clippy::cast_sign_loss)]
    #[target_feature(enable = "sse4.1")]
    pub unsafe fn word1_sse41(
        words: &[u64],
        sv: u64,
        sc: u64,
        key_bits: u32,
        ternary: bool,
    ) -> u64 {
        let sv_v = _mm_set1_epi64x(sv as i64);
        let sc_v = _mm_set1_epi64x(sc as i64);
        let shift = _mm_cvtsi32_si128(key_bits as i32);
        let zero = _mm_setzero_si128();
        let mut bits = 0u64;
        let mut i = 0usize;
        while i + 2 <= words.len() {
            let w = _mm_loadu_si128(words.as_ptr().add(i).cast::<__m128i>());
            let care = if ternary {
                _mm_andnot_si128(_mm_srl_epi64(w, shift), sc_v)
            } else {
                sc_v
            };
            let m = _mm_and_si128(_mm_xor_si128(w, sv_v), care);
            let eq = _mm_cmpeq_epi64(m, zero);
            bits |= u64::from(_mm_movemask_pd(_mm_castsi128_pd(eq)) as u32) << i;
            i += 2;
        }
        if i < words.len() {
            bits |= word1_scalar(&words[i..], sv, sc, key_bits, ternary) << i;
        }
        bits
    }

    /// Fused first-hit over word-1 slots: one broadcast setup, then a
    /// 4-slot vector compare per iteration, masked with that group's
    /// occupancy bits and returning on the first survivor. Empty 4-slot
    /// groups skip even the row load.
    #[allow(
        clippy::cast_possible_wrap,
        clippy::cast_sign_loss,
        clippy::cast_possible_truncation
    )]
    #[target_feature(enable = "avx2")]
    pub unsafe fn word1_first_avx2(
        words: &[u64],
        occ: u64,
        sv: u64,
        sc: u64,
        key_bits: u32,
        ternary: bool,
    ) -> Option<u32> {
        let sv_v = _mm256_set1_epi64x(sv as i64);
        let sc_v = _mm256_set1_epi64x(sc as i64);
        let shift = _mm_cvtsi32_si128(key_bits as i32);
        let zero = _mm256_setzero_si256();
        let compare4 = |i: usize| {
            let w = _mm256_loadu_si256(words.as_ptr().add(i).cast::<__m256i>());
            let care = if ternary {
                _mm256_andnot_si256(_mm256_srl_epi64(w, shift), sc_v)
            } else {
                sc_v
            };
            let m = _mm256_and_si256(_mm256_xor_si256(w, sv_v), care);
            let eq = _mm256_cmpeq_epi64(m, zero);
            u64::from(_mm256_movemask_pd(_mm256_castsi256_pd(eq)) as u32)
        };
        let mut i = 0usize;
        // Two vectors per early-exit test: 8-slot granularity halves the
        // branch/test overhead on deep hits and misses while still
        // exiting well before the row's end on shallow hits.
        while i + 8 <= words.len() {
            let group_occ = (occ >> i) & 0xFF;
            if group_occ != 0 {
                let hit = (compare4(i) | (compare4(i + 4) << 4)) & group_occ;
                if hit != 0 {
                    return Some(i as u32 + hit.trailing_zeros());
                }
            }
            i += 8;
        }
        if i + 4 <= words.len() {
            let group_occ = (occ >> i) & 0xF;
            if group_occ != 0 {
                let hit = compare4(i) & group_occ;
                if hit != 0 {
                    return Some(i as u32 + hit.trailing_zeros());
                }
            }
            i += 4;
        }
        if i < words.len() {
            let bits = word1_scalar(&words[i..], sv, sc, key_bits, ternary) & (occ >> i);
            if bits != 0 {
                return Some(i as u32 + bits.trailing_zeros());
            }
        }
        None
    }

    /// SSE4.1 twin of [`word1_first_avx2`]: 2-slot groups.
    #[allow(
        clippy::cast_possible_wrap,
        clippy::cast_sign_loss,
        clippy::cast_possible_truncation
    )]
    #[target_feature(enable = "sse4.1")]
    pub unsafe fn word1_first_sse41(
        words: &[u64],
        occ: u64,
        sv: u64,
        sc: u64,
        key_bits: u32,
        ternary: bool,
    ) -> Option<u32> {
        let sv_v = _mm_set1_epi64x(sv as i64);
        let sc_v = _mm_set1_epi64x(sc as i64);
        let shift = _mm_cvtsi32_si128(key_bits as i32);
        let zero = _mm_setzero_si128();
        let mut i = 0usize;
        while i + 2 <= words.len() {
            let group_occ = (occ >> i) & 0b11;
            if group_occ != 0 {
                let w = _mm_loadu_si128(words.as_ptr().add(i).cast::<__m128i>());
                let care = if ternary {
                    _mm_andnot_si128(_mm_srl_epi64(w, shift), sc_v)
                } else {
                    sc_v
                };
                let m = _mm_and_si128(_mm_xor_si128(w, sv_v), care);
                let eq = _mm_cmpeq_epi64(m, zero);
                let hit = u64::from(_mm_movemask_pd(_mm_castsi128_pd(eq)) as u32) & group_occ;
                if hit != 0 {
                    return Some(i as u32 + hit.trailing_zeros());
                }
            }
            i += 2;
        }
        if i < words.len() {
            let bits = word1_scalar(&words[i..], sv, sc, key_bits, ternary) & (occ >> i);
            if bits != 0 {
                return Some(i as u32 + bits.trailing_zeros());
            }
        }
        None
    }

    #[allow(clippy::cast_possible_wrap, clippy::cast_sign_loss)]
    #[target_feature(enable = "avx2")]
    pub unsafe fn word2_avx2(words: &[u64], sv_lo: u64, sv_hi: u64, sc_lo: u64, sc_hi: u64) -> u64 {
        // Lane order: _mm256_set_epi64x lists the HIGHEST lane first, so
        // lane 0 (the lowest) is the last argument — the lo word.
        let sv_v = _mm256_set_epi64x(sv_hi as i64, sv_lo as i64, sv_hi as i64, sv_lo as i64);
        let sc_v = _mm256_set_epi64x(sc_hi as i64, sc_lo as i64, sc_hi as i64, sc_lo as i64);
        let zero = _mm256_setzero_si256();
        let slots = words.len() / 2;
        let mut bits = 0u64;
        let mut j = 0usize;
        while j + 2 <= slots {
            let w = _mm256_loadu_si256(words.as_ptr().add(2 * j).cast::<__m256i>());
            let m = _mm256_and_si256(_mm256_xor_si256(w, sv_v), sc_v);
            let eq = _mm256_cmpeq_epi64(m, zero);
            let mm = _mm256_movemask_pd(_mm256_castsi256_pd(eq)) as u32;
            // Slot j matches iff lanes 0 and 1 both compared equal; slot
            // j+1 iff lanes 2 and 3 did.
            let both = mm & (mm >> 1);
            bits |= u64::from((both & 1) | ((both >> 1) & 2)) << j;
            j += 2;
        }
        if j < slots {
            bits |= word2_scalar(&words[2 * j..], sv_lo, sv_hi, sc_lo, sc_hi) << j;
        }
        bits
    }

    #[allow(clippy::cast_possible_wrap, clippy::cast_sign_loss)]
    #[target_feature(enable = "sse4.1")]
    pub unsafe fn word2_sse41(
        words: &[u64],
        sv_lo: u64,
        sv_hi: u64,
        sc_lo: u64,
        sc_hi: u64,
    ) -> u64 {
        let sv_v = _mm_set_epi64x(sv_hi as i64, sv_lo as i64);
        let sc_v = _mm_set_epi64x(sc_hi as i64, sc_lo as i64);
        let zero = _mm_setzero_si128();
        let mut bits = 0u64;
        for (j, pair) in words.chunks_exact(2).enumerate() {
            let w = _mm_loadu_si128(pair.as_ptr().cast::<__m128i>());
            let m = _mm_and_si128(_mm_xor_si128(w, sv_v), sc_v);
            let eq = _mm_cmpeq_epi64(m, zero);
            bits |= u64::from(_mm_movemask_pd(_mm_castsi128_pd(eq)) as u32 == 0b11) << j;
        }
        bits
    }
}

#[cfg(all(feature = "simd", target_arch = "aarch64"))]
#[allow(clippy::similar_names)] // sv/sc: search value vs search care
mod arm {
    use core::arch::aarch64::{
        vandq_u64, vbicq_u64, vceqzq_u64, vdupq_n_s64, vdupq_n_u64, veorq_u64, vgetq_lane_u64,
        vld1q_u64, vshlq_u64,
    };

    #[allow(clippy::cast_possible_wrap)]
    pub unsafe fn word1_neon(words: &[u64], sv: u64, sc: u64, key_bits: u32, ternary: bool) -> u64 {
        let sv_v = vdupq_n_u64(sv);
        let sc_v = vdupq_n_u64(sc);
        // NEON has no vector shift-right-by-scalar for u64; shift left by
        // a negative amount instead.
        let neg_shift = vdupq_n_s64(-i64::from(key_bits));
        let mut bits = 0u64;
        let mut i = 0usize;
        while i + 2 <= words.len() {
            let w = vld1q_u64(words.as_ptr().add(i));
            let care = if ternary {
                vbicq_u64(sc_v, vshlq_u64(w, neg_shift))
            } else {
                sc_v
            };
            let m = vandq_u64(veorq_u64(w, sv_v), care);
            let eq = vceqzq_u64(m);
            bits |= (vgetq_lane_u64::<0>(eq) & 1) << i;
            bits |= (vgetq_lane_u64::<1>(eq) & 1) << (i + 1);
            i += 2;
        }
        if i < words.len() {
            bits |= super::word1_scalar(&words[i..], sv, sc, key_bits, ternary) << i;
        }
        bits
    }

    /// Fused first-hit twin of [`word1_neon`]: 2-slot groups, occupancy
    /// masked per group, early exit on the first surviving match.
    #[allow(clippy::cast_possible_wrap, clippy::cast_possible_truncation)]
    pub unsafe fn word1_first_neon(
        words: &[u64],
        occ: u64,
        sv: u64,
        sc: u64,
        key_bits: u32,
        ternary: bool,
    ) -> Option<u32> {
        let sv_v = vdupq_n_u64(sv);
        let sc_v = vdupq_n_u64(sc);
        let neg_shift = vdupq_n_s64(-i64::from(key_bits));
        let mut i = 0usize;
        while i + 2 <= words.len() {
            let group_occ = (occ >> i) & 0b11;
            if group_occ != 0 {
                let w = vld1q_u64(words.as_ptr().add(i));
                let care = if ternary {
                    vbicq_u64(sc_v, vshlq_u64(w, neg_shift))
                } else {
                    sc_v
                };
                let m = vandq_u64(veorq_u64(w, sv_v), care);
                let eq = vceqzq_u64(m);
                let hit = ((vgetq_lane_u64::<0>(eq) & 1) | ((vgetq_lane_u64::<1>(eq) & 1) << 1))
                    & group_occ;
                if hit != 0 {
                    return Some(i as u32 + hit.trailing_zeros());
                }
            }
            i += 2;
        }
        if i < words.len() {
            let bits = super::word1_scalar(&words[i..], sv, sc, key_bits, ternary) & (occ >> i);
            if bits != 0 {
                return Some(i as u32 + bits.trailing_zeros());
            }
        }
        None
    }

    pub unsafe fn word2_neon(words: &[u64], sv_lo: u64, sv_hi: u64, sc_lo: u64, sc_hi: u64) -> u64 {
        let sv_v = vld1q_u64([sv_lo, sv_hi].as_ptr());
        let sc_v = vld1q_u64([sc_lo, sc_hi].as_ptr());
        let mut bits = 0u64;
        for (j, pair) in words.chunks_exact(2).enumerate() {
            let w = vld1q_u64(pair.as_ptr());
            let m = vandq_u64(veorq_u64(w, sv_v), sc_v);
            let eq = vceqzq_u64(m);
            bits |= (vgetq_lane_u64::<0>(eq) & vgetq_lane_u64::<1>(eq) & 1) << j;
        }
        bits
    }
}

/// Match bits for word-per-slot rows (64-bit slots, stored key ≤ 64
/// bits): bit `i` of the result is set iff `words[i]` matches the search
/// key. `sv` is the search value, `sc` the search-care mask (both already
/// confined to the low `key_bits` bits); with `ternary` the stored
/// don't-care field sits at bit `key_bits` of each word and is subtracted
/// from `sc` per slot. Garbage in invalid slots may set bits — callers
/// mask the result with the occupancy bitmap.
///
/// # Panics
///
/// Panics if more than 64 words are passed (the result is one `u64`), or
/// in debug builds if `ternary` is set with `key_bits >= 64` (the
/// don't-care shift would overflow; ternary word-1 slots imply
/// `key_bits <= 32`).
#[must_use]
pub fn word1_bits(
    kernel: Kernel,
    words: &[u64],
    sv: u64,
    sc: u64,
    key_bits: u32,
    ternary: bool,
) -> u64 {
    assert!(words.len() <= 64, "word1 kernel compares at most 64 slots");
    debug_assert!(!ternary || key_bits < 64);
    match kernel {
        Kernel::Scalar => word1_scalar(words, sv, sc, key_bits, ternary),
        Kernel::Lanes128 => {
            #[cfg(all(feature = "simd", target_arch = "x86_64"))]
            if std::arch::is_x86_feature_detected!("sse4.1") {
                return unsafe { x86::word1_sse41(words, sv, sc, key_bits, ternary) };
            }
            #[cfg(all(feature = "simd", target_arch = "aarch64"))]
            return unsafe { arm::word1_neon(words, sv, sc, key_bits, ternary) };
            #[allow(unreachable_code)]
            word1_scalar(words, sv, sc, key_bits, ternary)
        }
        Kernel::Lanes256 => {
            #[cfg(all(feature = "simd", target_arch = "x86_64"))]
            if std::arch::is_x86_feature_detected!("avx2") {
                return unsafe { x86::word1_avx2(words, sv, sc, key_bits, ternary) };
            }
            word1_bits(Kernel::Lanes128, words, sv, sc, key_bits, ternary)
        }
    }
}

/// Match bits for two-word binary slots (128-bit slots, no stored
/// don't-care field): bit `j` of the result is set iff the slot at
/// `words[2j..2j + 2]` matches. `sv_lo`/`sv_hi` and `sc_lo`/`sc_hi` are
/// the low and high words of the 128-bit search value and care mask; the
/// care mask is confined to the key field, so data or garbage bits above
/// it never affect the compare.
///
/// # Panics
///
/// Panics if `words` is not an even number of words or holds more than
/// 64 slots.
#[must_use]
#[allow(clippy::similar_names)] // sv/sc: search value vs search care
pub fn word2_binary_bits(
    kernel: Kernel,
    words: &[u64],
    sv_lo: u64,
    sv_hi: u64,
    sc_lo: u64,
    sc_hi: u64,
) -> u64 {
    assert!(
        words.len().is_multiple_of(2),
        "word2 kernel needs whole 2-word slots"
    );
    assert!(words.len() <= 128, "word2 kernel compares at most 64 slots");
    match kernel {
        Kernel::Scalar => word2_scalar(words, sv_lo, sv_hi, sc_lo, sc_hi),
        Kernel::Lanes128 => {
            #[cfg(all(feature = "simd", target_arch = "x86_64"))]
            if std::arch::is_x86_feature_detected!("sse4.1") {
                return unsafe { x86::word2_sse41(words, sv_lo, sv_hi, sc_lo, sc_hi) };
            }
            #[cfg(all(feature = "simd", target_arch = "aarch64"))]
            return unsafe { arm::word2_neon(words, sv_lo, sv_hi, sc_lo, sc_hi) };
            #[allow(unreachable_code)]
            word2_scalar(words, sv_lo, sv_hi, sc_lo, sc_hi)
        }
        Kernel::Lanes256 => {
            #[cfg(all(feature = "simd", target_arch = "x86_64"))]
            if std::arch::is_x86_feature_detected!("avx2") {
                return unsafe { x86::word2_avx2(words, sv_lo, sv_hi, sc_lo, sc_hi) };
            }
            word2_binary_bits(Kernel::Lanes128, words, sv_lo, sv_hi, sc_lo, sc_hi)
        }
    }
}

/// Serializes unit tests that mutate the process-wide kernel override,
/// so `cargo test`'s parallel threads cannot observe each other's forces.
#[cfg(test)]
pub(crate) fn test_force_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Bit-at-a-time reference for the word-1 kernel contract.
    fn word1_reference(words: &[u64], sv: u64, sc: u64, key_bits: u32, ternary: bool) -> u64 {
        let mut bits = 0u64;
        for (i, &w) in words.iter().enumerate() {
            let dc = if ternary { w >> key_bits } else { 0 };
            let care = sc & !dc;
            if (w ^ sv) & care == 0 {
                bits |= 1 << i;
            }
        }
        bits
    }

    #[test]
    fn all_kernels_agree_on_word1() {
        let mut rng = SmallRng::seed_from_u64(0x5EED);
        for &(key_bits, ternary) in &[(32u32, true), (16, true), (64, false), (48, false)] {
            for len in [0usize, 1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 31, 32, 33, 63, 64] {
                let mut words: Vec<u64> = (0..len).map(|_| rng.gen()).collect();
                let sv = rng.gen::<u64>() & crate::bits::low_mask(key_bits) as u64;
                let sc = rng.gen::<u64>() & crate::bits::low_mask(key_bits) as u64;
                // Plant a guaranteed match so the all-miss case is not all
                // we ever test.
                if len > 0 {
                    let slot = rng.gen_range(0..len);
                    words[slot] = sv | (words[slot] & !(crate::bits::low_mask(key_bits) as u64));
                    if ternary {
                        words[slot] &= crate::bits::low_mask(key_bits) as u64; // clear dc field
                    }
                }
                let want = word1_reference(&words, sv, sc, key_bits, ternary);
                for k in available() {
                    assert_eq!(
                        word1_bits(k, &words, sv, sc, key_bits, ternary),
                        want,
                        "kernel {k:?} len {len} key_bits {key_bits} ternary {ternary}"
                    );
                }
            }
        }
    }

    #[test]
    fn all_kernels_agree_on_word2() {
        let mut rng = SmallRng::seed_from_u64(0xB00B);
        for slots in [0usize, 1, 2, 3, 4, 5, 8, 15, 16, 31, 32, 63, 64] {
            let mut words: Vec<u64> = (0..2 * slots).map(|_| rng.gen()).collect();
            let sv_lo = rng.gen();
            let sv_hi = rng.gen();
            let sc_lo = rng.gen();
            let sc_hi: u64 = rng.gen();
            if slots > 0 {
                let j = rng.gen_range(0..slots);
                words[2 * j] = sv_lo;
                words[2 * j + 1] = sv_hi;
            }
            let want = word2_scalar(&words, sv_lo, sv_hi, sc_lo, sc_hi);
            for k in available() {
                assert_eq!(
                    word2_binary_bits(k, &words, sv_lo, sv_hi, sc_lo, sc_hi),
                    want,
                    "kernel {k:?} slots {slots}"
                );
            }
        }
    }

    #[test]
    fn forced_kernel_is_scoped_and_restored() {
        let _guard = test_force_lock();
        let before = active_kernel();
        let inside = with_forced(Kernel::Scalar, active_kernel);
        assert_eq!(inside, Kernel::Scalar);
        assert_eq!(active_kernel(), before);
    }

    #[test]
    fn clamp_never_exceeds_detection() {
        let _guard = test_force_lock();
        let widest = detect();
        for k in [Kernel::Scalar, Kernel::Lanes128, Kernel::Lanes256] {
            let got = with_forced(k, active_kernel);
            assert!(got <= widest, "forced {k:?} resolved to {got:?}");
            assert!(got <= k, "forcing never widens");
        }
    }

    #[test]
    fn scalar_is_always_available() {
        assert_eq!(available().first(), Some(&Kernel::Scalar));
    }
}
