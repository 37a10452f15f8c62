//! SWAR (SIMD-within-a-register) primitives for the tag-byte fast path.
//!
//! Since PR 4 every cuckoo table keeps one tag byte per slot (`0` = empty,
//! `0x80 | fingerprint` = occupied). PR 5 turns those dense byte arrays into
//! the engine's universal scan medium: instead of inspecting tags one byte at
//! a time, the probe and iteration paths load **eight tags as one `u64` word**
//! and answer the three questions every hot loop asks with a handful of ALU
//! operations:
//!
//! * *which slots carry this fingerprint?* — broadcast-XOR the wanted tag
//!   across the word, then locate the zero bytes ([`eq_mask`]);
//! * *where is the first empty slot?* — the same zero-byte search against the
//!   raw word ([`eq_mask`] with tag `0`);
//! * *which slots are occupied at all?* — every occupied tag has bit 7 set,
//!   so `word & 0x8080…` is the occupancy bitmap ([`occupied_mask`]), and
//!   `trailing_zeros / 8` walks it one occupied slot at a time, skipping empty
//!   regions in whole-word jumps.
//!
//! Everything here is safe Rust over [`u64::from_le_bytes`] — no intrinsics,
//! no `unsafe`. Little-endian byte order is used *explicitly* (free on LE
//! hardware, a byte swap on BE) so that byte `i` of a loaded chunk always
//! lives in bits `8i..8i+8` and `trailing_zeros` maps back to slice indices
//! on every architecture.
//!
//! The zero-byte detector is the **exact** variant
//! (`!((((x & !MSB) + !MSB) | x) | !MSB)`) rather than the cheaper
//! `(x - LSB) & !x & MSB` folklore trick: the latter can flag non-zero bytes
//! above a genuine zero via borrow propagation, which would make the SWAR scan
//! disagree with the scalar oracle on adversarial patterns. The exact form
//! costs one extra ALU op and produces `0x80` in precisely the zero bytes, so
//! the property tests in `tests/swar_scan_model.rs` can demand bit-for-bit
//! agreement with the scalar reference scans kept in this module.

/// `0x01` in every byte lane.
pub const LSB: u64 = 0x0101_0101_0101_0101;

/// `0x80` in every byte lane — the occupancy bit of the tag format.
pub const MSB: u64 = 0x8080_8080_8080_8080;

/// `0x7f` in every byte lane.
const LOW7: u64 = !MSB;

/// Broadcasts one byte across all eight lanes of a word.
#[inline(always)]
pub fn broadcast(b: u8) -> u64 {
    u64::from(b) * LSB
}

/// Loads up to eight tag bytes as one little-endian word, zero-padding the
/// missing high lanes. Callers scanning for the empty tag (`0`) must guard
/// returned indices against `tags.len()`, because the padding is
/// indistinguishable from empty slots; occupied tags (`>= 0x80`) can never
/// collide with the padding.
#[inline(always)]
pub fn load_word(tags: &[u8]) -> u64 {
    let mut buf = [0u8; 8];
    let n = tags.len().min(8);
    buf[..n].copy_from_slice(&tags[..n]);
    u64::from_le_bytes(buf)
}

/// Exact byte-equality mask: `0x80` in every lane where the corresponding
/// byte of `w` equals `b`, `0x00` everywhere else. No false positives, no
/// false negatives (see the module docs for why the exact form is used).
#[inline(always)]
pub fn eq_mask(w: u64, b: u8) -> u64 {
    let x = w ^ broadcast(b);
    // Per-lane: bit 7 of `((x & 0x7f) + 0x7f) | x` is set iff the lane is
    // non-zero; the addition cannot carry across lanes (max 0x7f + 0x7f).
    !((((x & LOW7) + LOW7) | x) | LOW7)
}

/// Occupancy mask: `0x80` in every lane whose tag has the occupancy bit set.
#[inline(always)]
pub fn occupied_mask(w: u64) -> u64 {
    w & MSB
}

/// Lane index of the lowest set flag in a mask produced by [`eq_mask`] or
/// [`occupied_mask`]. The mask must be non-zero.
#[inline(always)]
pub fn first_index(mask: u64) -> usize {
    debug_assert_ne!(mask, 0, "first_index of an empty mask");
    (mask.trailing_zeros() >> 3) as usize
}

/// Visits the index of every byte in `tags` equal to `tag`, eight bytes per
/// step, in ascending order; `visit` returns `true` to stop early. Returns
/// whether the scan was stopped.
///
/// This is the generic form behind the probe paths: fingerprint candidates
/// (`tag = 0x80 | fp`, visit confirms the full key) and first-empty-slot
/// searches (`tag = 0`, visit stores the index and stops).
#[inline(always)]
pub fn scan_eq(tags: &[u8], tag: u8, mut visit: impl FnMut(usize) -> bool) -> bool {
    let mut base = 0usize;
    let mut chunks = tags.chunks_exact(8);
    for chunk in chunks.by_ref() {
        let word = u64::from_le_bytes(chunk.try_into().expect("chunks_exact(8)"));
        let mut mask = eq_mask(word, tag);
        while mask != 0 {
            if visit(base + first_index(mask)) {
                return true;
            }
            mask &= mask - 1;
        }
        base += 8;
    }
    let tail = chunks.remainder();
    if !tail.is_empty() {
        let mut mask = eq_mask(load_word(tail), tag);
        while mask != 0 {
            let i = first_index(mask);
            if i >= tail.len() {
                // Everything past here is zero padding (only reachable when
                // scanning for the empty tag).
                break;
            }
            if visit(base + i) {
                return true;
            }
            mask &= mask - 1;
        }
    }
    false
}

/// Visits the index of every occupied tag (`bit 7` set) in ascending order —
/// the word-skipping iteration kernel behind `for_each`, drains and neighbour
/// scans. Whole words of empty slots cost one load and one test.
#[inline(always)]
pub fn scan_occupied(tags: &[u8], mut visit: impl FnMut(usize)) {
    let mut base = 0usize;
    let mut chunks = tags.chunks_exact(8);
    for chunk in chunks.by_ref() {
        let word = u64::from_le_bytes(chunk.try_into().expect("chunks_exact(8)"));
        let mut mask = occupied_mask(word);
        while mask != 0 {
            visit(base + first_index(mask));
            mask &= mask - 1;
        }
        base += 8;
    }
    let tail = chunks.remainder();
    if !tail.is_empty() {
        // Zero padding has bit 7 clear, so it never enters the mask.
        let mut mask = occupied_mask(load_word(tail));
        while mask != 0 {
            visit(base + first_index(mask));
            mask &= mask - 1;
        }
    }
}

/// First index whose tag equals `tag`, or `None`. SWAR counterpart of
/// `tags.iter().position(|&t| t == tag)`.
#[inline(always)]
pub fn find_eq(tags: &[u8], tag: u8) -> Option<usize> {
    let mut found = None;
    scan_eq(tags, tag, |i| {
        found = Some(i);
        true
    });
    found
}

// ---------------------------------------------------------------------------
// Scalar oracles
// ---------------------------------------------------------------------------
//
// The pre-SWAR byte-at-a-time scans, retained verbatim as the correctness
// oracle: the property tests drive both paths over random tag patterns
// (including the `0x80` zero-fingerprint edge case) and demand identical
// results.

/// Scalar counterpart of [`scan_eq`].
pub fn scan_eq_scalar(tags: &[u8], tag: u8, mut visit: impl FnMut(usize) -> bool) -> bool {
    for (i, &t) in tags.iter().enumerate() {
        if t == tag && visit(i) {
            return true;
        }
    }
    false
}

/// Scalar counterpart of [`scan_occupied`].
pub fn scan_occupied_scalar(tags: &[u8], mut visit: impl FnMut(usize)) {
    for (i, &t) in tags.iter().enumerate() {
        if t & 0x80 != 0 {
            visit(i);
        }
    }
}

/// Scalar counterpart of [`find_eq`].
pub fn find_eq_scalar(tags: &[u8], tag: u8) -> Option<usize> {
    tags.iter().position(|&t| t == tag)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn positions(tags: &[u8], tag: u8) -> Vec<usize> {
        let mut out = Vec::new();
        scan_eq(tags, tag, |i| {
            out.push(i);
            false
        });
        out
    }

    fn positions_scalar(tags: &[u8], tag: u8) -> Vec<usize> {
        let mut out = Vec::new();
        scan_eq_scalar(tags, tag, |i| {
            out.push(i);
            false
        });
        out
    }

    #[test]
    fn eq_mask_is_exact_per_lane() {
        // Borrow-chain adversarial pattern: a zero byte followed by 0x01
        // bytes, which the folklore `(x - LSB) & !x & MSB` trick over-flags.
        let w = u64::from_le_bytes([0x00, 0x01, 0x01, 0x01, 0x80, 0xff, 0x00, 0x7f]);
        let m = eq_mask(w, 0);
        assert_eq!(m, 0x0080_0000_0000_0080, "exact zero lanes only");
        assert_eq!(first_index(m), 0);
    }

    #[test]
    fn eq_mask_finds_every_tag_value() {
        for tag in [0u8, 0x01, 0x7f, 0x80, 0x81, 0xaa, 0xff] {
            let mut bytes = [0u8; 8];
            bytes[3] = tag;
            bytes[6] = tag;
            let w = u64::from_le_bytes(bytes);
            let mut m = eq_mask(w, tag);
            if tag == 0 {
                // Lanes 3 and 6 hold the tag, but so do all the other zeros.
                assert_eq!(m, MSB);
            } else {
                assert_eq!(first_index(m), 3);
                m &= m - 1;
                assert_eq!(first_index(m), 6);
                m &= m - 1;
                assert_eq!(m, 0);
            }
        }
    }

    #[test]
    fn occupied_mask_tracks_bit_seven() {
        let w = u64::from_le_bytes([0x80, 0x00, 0xff, 0x7f, 0x81, 0x00, 0x00, 0xc3]);
        let mut seen = Vec::new();
        let mut m = occupied_mask(w);
        while m != 0 {
            seen.push(first_index(m));
            m &= m - 1;
        }
        assert_eq!(seen, vec![0, 2, 4, 7]);
    }

    #[test]
    fn partial_loads_zero_pad_high_lanes() {
        let tags = [0x81u8, 0x92, 0xff];
        assert_eq!(load_word(&tags), 0x00ff_9281);
        // Padding looks empty: an empty-tag scan must not report index 3+.
        assert_eq!(find_eq(&tags, 0), None);
        // Occupied scans ignore the padding entirely.
        let mut seen = Vec::new();
        scan_occupied(&tags, |i| seen.push(i));
        assert_eq!(seen, vec![0, 1, 2]);
    }

    #[test]
    fn swar_and_scalar_agree_on_dense_patterns() {
        // Every length 0..=19 (exercising exact chunks and tails), a pattern
        // mixing empties, the 0x80 zero-fingerprint tag, and arbitrary tags.
        let pattern = [
            0x80u8, 0x00, 0x81, 0x80, 0xff, 0x00, 0x00, 0x80, 0x91, 0x00, 0x80, 0x80, 0x7f, 0x01,
            0x00, 0xfe, 0x80, 0x00, 0xaa,
        ];
        for len in 0..=pattern.len() {
            let tags = &pattern[..len];
            for tag in [0u8, 0x80, 0x81, 0xaa, 0x33] {
                assert_eq!(
                    positions(tags, tag),
                    positions_scalar(tags, tag),
                    "len {len} tag {tag:#x}"
                );
                assert_eq!(
                    find_eq(tags, tag),
                    find_eq_scalar(tags, tag),
                    "len {len} tag {tag:#x}"
                );
            }
            let mut swar = Vec::new();
            scan_occupied(tags, |i| swar.push(i));
            let mut scalar = Vec::new();
            scan_occupied_scalar(tags, |i| scalar.push(i));
            assert_eq!(swar, scalar, "occupied scan at len {len}");
        }
    }

    #[test]
    fn scan_eq_early_exit_stops_the_walk() {
        let tags = [0x90u8, 0x90, 0x90, 0x90];
        let mut visits = 0;
        let stopped = scan_eq(&tags, 0x90, |_| {
            visits += 1;
            visits == 2
        });
        assert!(stopped);
        assert_eq!(visits, 2);
    }
}
