//! Bit-level helpers for packing records into memory rows.
//!
//! A CA-RAM row is `C` bits wide and holds multiple fixed-width record slots
//! (Sec. 3.1). Rows are stored as little-endian sequences of `u64` words; a
//! bit field of up to 128 bits can start at any bit offset and may straddle
//! word boundaries.

/// Returns a mask with the low `bits` bits set (`bits` ≤ 128).
///
/// # Panics
///
/// Panics if `bits > 128`.
#[must_use]
#[inline]
pub fn low_mask(bits: u32) -> u128 {
    assert!(bits <= 128, "mask width {bits} exceeds 128 bits");
    if bits == 128 {
        u128::MAX
    } else {
        (1u128 << bits) - 1
    }
}

/// Reads a `width`-bit field starting at bit `offset` from `words`.
///
/// A field of up to 128 bits spans at most three words, so the read is
/// one unaligned window with no loop: the field's first word, the word
/// after it (clamped to the field's last word) and its last word are
/// loaded, shifted into place and masked. A field that ends a row never
/// reads past it, and a word loaded twice lands above `width`, where the
/// mask drops it. Record decode ([`crate::layout::RecordLayout::decode_slot`],
/// so `extract` on unaligned slots and `bucket_entries`) reads every field
/// through this; the match step's compare uses the 64-bit twin
/// [`read_u64`].
///
/// # Panics
///
/// Panics if `width > 128` or the field extends past the end of `words`.
#[must_use]
#[inline]
pub fn read_bits(words: &[u64], offset: usize, width: u32) -> u128 {
    assert!(width <= 128, "field width {width} exceeds 128 bits");
    if width == 0 {
        return 0;
    }
    let end = offset + width as usize;
    assert!(
        end <= words.len() * 64,
        "field [{offset}, {end}) extends past the row ({} bits)",
        words.len() * 64
    );
    let first = offset / 64;
    let last = (end - 1) / 64;
    let shift = offset % 64;
    let low = u128::from(words[first]) | (u128::from(words[(first + 1).min(last)]) << 64);
    // The last word starts at bit `128 - shift` of the window when the
    // field spans three words; shifting in two steps keeps `shift == 0`
    // (at most two words) from overflowing.
    let high = u128::from(words[last]);
    ((low >> shift) | (high << 1 << (127 - shift))) & low_mask(width)
}

/// Reads a field of 1 to 64 bits starting at bit `offset` from `words`:
/// the 64-bit twin of [`read_bits`], two word loads (the field's first
/// and last word) and no loop. The generic slot compare reads its key and
/// don't-care fields through this, at most 64 bits at a time, so it stays
/// small enough to inline into the compare loop.
///
/// # Panics
///
/// Panics if `width` is 0 or above 64, or if the field extends past the
/// end of `words` (as an index out of bounds).
#[must_use]
#[inline]
pub fn read_u64(words: &[u64], offset: usize, width: u32) -> u64 {
    assert!((1..=64).contains(&width), "word field width not in 1..=64");
    let shift = offset % 64;
    let last = (offset + width as usize - 1) / 64;
    // The last word starts at bit `64 - shift` of the window; when the
    // field fits in its first word, that word's copy lands above `width`.
    let window = (words[offset / 64] >> shift) | (words[last] << 1 << (63 - shift));
    window & (u64::MAX >> (64 - width))
}

/// Writes a `width`-bit field starting at bit `offset` into `words`.
///
/// Bits of `value` above `width` are ignored.
///
/// # Panics
///
/// Panics if `width > 128` or the field extends past the end of `words`.
#[allow(clippy::cast_possible_truncation)] // offset % 64 < 64; masked chunks
pub fn write_bits(words: &mut [u64], offset: usize, width: u32, value: u128) {
    assert!(width <= 128, "field width {width} exceeds 128 bits");
    if width == 0 {
        return;
    }
    let end = offset + width as usize;
    assert!(
        end <= words.len() * 64,
        "field [{offset}, {end}) extends past the row ({} bits)",
        words.len() * 64
    );
    let value = value & low_mask(width);
    let mut word_idx = offset / 64;
    let mut bit_idx = (offset % 64) as u32;
    // Single-word fast path, mirroring `read_bits`.
    if bit_idx + width <= 64 {
        let clear = if width == 64 {
            u64::MAX
        } else {
            ((1u64 << width) - 1) << bit_idx
        };
        words[word_idx] = (words[word_idx] & !clear) | ((value as u64) << bit_idx);
        return;
    }
    let mut put: u32 = 0;
    while put < width {
        let take = (64 - bit_idx).min(width - put);
        let chunk = ((value >> put) & low_mask(take)) as u64;
        let clear = if take == 64 {
            u64::MAX
        } else {
            ((1u64 << take) - 1) << bit_idx
        };
        words[word_idx] = (words[word_idx] & !clear) | (chunk << bit_idx);
        put += take;
        bit_idx = 0;
        word_idx += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_widths() {
        assert_eq!(low_mask(0), 0);
        assert_eq!(low_mask(1), 1);
        assert_eq!(low_mask(64), u128::from(u64::MAX));
        assert_eq!(low_mask(128), u128::MAX);
    }

    #[test]
    fn read_write_within_one_word() {
        let mut row = vec![0u64; 2];
        write_bits(&mut row, 3, 8, 0xAB);
        assert_eq!(read_bits(&row, 3, 8), 0xAB);
        assert_eq!(read_bits(&row, 0, 3), 0);
        assert_eq!(read_bits(&row, 11, 8), 0);
    }

    #[test]
    fn read_write_straddles_words() {
        let mut row = vec![0u64; 3];
        let v: u128 = 0xDEAD_BEEF_CAFE_F00D_1234_5678_9ABC_DEF0;
        write_bits(&mut row, 60, 128, v);
        assert_eq!(read_bits(&row, 60, 128), v);
        // Neighbouring bits untouched.
        assert_eq!(read_bits(&row, 0, 60), 0);
    }

    #[test]
    fn overwrite_clears_old_bits() {
        let mut row = vec![u64::MAX; 2];
        write_bits(&mut row, 10, 16, 0);
        assert_eq!(read_bits(&row, 10, 16), 0);
        assert_eq!(read_bits(&row, 0, 10), low_mask(10));
        assert_eq!(read_bits(&row, 26, 16), low_mask(16));
    }

    #[test]
    fn value_truncated_to_width() {
        let mut row = vec![0u64; 1];
        write_bits(&mut row, 0, 4, 0xFF);
        assert_eq!(read_bits(&row, 0, 8), 0x0F);
    }

    #[test]
    fn zero_width_is_noop() {
        let mut row = vec![0xFFFF_FFFF_FFFF_FFFFu64];
        write_bits(&mut row, 5, 0, 0x123);
        assert_eq!(read_bits(&row, 5, 0), 0);
        assert_eq!(row[0], u64::MAX);
    }

    /// Bit-at-a-time reference for cross-checking `read_bits` and
    /// `read_u64`.
    fn read_bits_reference(words: &[u64], offset: usize, width: u32) -> u128 {
        let mut v = 0u128;
        for i in 0..width as usize {
            let bit = offset + i;
            v |= u128::from(words[bit / 64] >> (bit % 64) & 1) << i;
        }
        v
    }

    #[test]
    fn fast_and_general_paths_agree() {
        // A fixed pseudo-random row; every (offset, width) combination with
        // width <= 64 is a field inside one word or straddling two, and
        // both window reads must agree with the reference.
        let row: Vec<u64> = (0..4u64)
            .map(|i| 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i * 2 + 1))
            .collect();
        for offset in 0..192 {
            for width in [1u32, 5, 17, 32, 33, 63, 64] {
                if offset + width as usize > 256 {
                    continue;
                }
                assert_eq!(
                    read_bits(&row, offset, width),
                    read_bits_reference(&row, offset, width),
                    "offset {offset} width {width}"
                );
                assert_eq!(
                    u128::from(read_u64(&row, offset, width)),
                    read_bits_reference(&row, offset, width),
                    "read_u64 offset {offset} width {width}"
                );
                // Round-trip through write_bits on a dirty row.
                let mut scratch = vec![u64::MAX; 4];
                let v = read_bits(&row, offset, width);
                write_bits(&mut scratch, offset, width, v);
                assert_eq!(read_bits(&scratch, offset, width), v);
                // Neighbouring bits untouched.
                if offset > 0 {
                    assert_eq!(read_bits(&scratch, 0, 1), 1);
                }
            }
        }
    }

    /// Bit-at-a-time reference writer: the write-path twin of
    /// `read_bits_reference`, clearing and setting one bit at a time.
    fn write_bits_reference(words: &mut [u64], offset: usize, width: u32, value: u128) {
        for i in 0..width as usize {
            let bit = offset + i;
            if (value >> i) & 1 == 1 {
                words[bit / 64] |= 1 << (bit % 64);
            } else {
                words[bit / 64] &= !(1 << (bit % 64));
            }
        }
    }

    #[test]
    fn word_boundary_widths_exhaustive() {
        // The word-boundary width family (63/64/65 — one bit short of a
        // word, exactly a word, one bit past) plus the 96/127/128 wide
        // ladder, at EVERY offset of a 9-word row. That covers fields
        // that start at, end at, and straddle word boundaries and the
        // 512-bit cache-line boundary (rows are line-aligned, so bit 512
        // is a line edge), up to fields that end on the row's last bit,
        // where a window read has no padding to lean on. Reads must agree
        // with the bit-at-a-time reference; writes must produce the
        // reference writer's whole-row image on clean and dirty
        // backgrounds alike (no neighbouring bit disturbed, no stale bit
        // surviving).
        let row: Vec<u64> = (0..9u64)
            .map(|i| {
                0xA5A5_5A5A_DEAD_BEEFu64
                    .rotate_left(u32::try_from(i).unwrap() * 7)
                    .wrapping_add(i)
            })
            .collect();
        let total = row.len() * 64;
        for width in [63u32, 64, 65, 96, 127, 128] {
            for offset in 0..=(total - width as usize) {
                assert_eq!(
                    read_bits(&row, offset, width),
                    read_bits_reference(&row, offset, width),
                    "read offset {offset} width {width}"
                );
                if width <= 64 {
                    assert_eq!(
                        u128::from(read_u64(&row, offset, width)),
                        read_bits_reference(&row, offset, width),
                        "read_u64 offset {offset} width {width}"
                    );
                }
                // A value with structure on both ends of the field.
                let v =
                    read_bits(&row, offset, width) ^ (low_mask(width) & !(low_mask(width) >> 3));
                for bg in [0u64, u64::MAX, 0x0123_4567_89AB_CDEF] {
                    let mut got = vec![bg; row.len()];
                    let mut want = vec![bg; row.len()];
                    write_bits(&mut got, offset, width, v);
                    write_bits_reference(&mut want, offset, width, v);
                    assert_eq!(
                        got, want,
                        "write offset {offset} width {width} bg {bg:#018x}"
                    );
                }
            }
        }
    }

    #[test]
    fn aligned_full_word_round_trip() {
        let mut row = vec![0u64; 2];
        write_bits(&mut row, 64, 64, u128::from(u64::MAX));
        assert_eq!(row, vec![0, u64::MAX]);
        assert_eq!(read_bits(&row, 64, 64), u128::from(u64::MAX));
    }

    #[test]
    #[should_panic(expected = "extends past the row")]
    fn out_of_bounds_read_rejected() {
        let row = vec![0u64; 1];
        let _ = read_bits(&row, 60, 8);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_word_read_rejected() {
        let row = vec![0u64; 1];
        let _ = read_u64(&row, 60, 8);
    }

    #[test]
    #[should_panic(expected = "exceeds 128 bits")]
    fn oversized_width_rejected() {
        let row = vec![0u64; 4];
        let _ = read_bits(&row, 0, 129);
    }
}
