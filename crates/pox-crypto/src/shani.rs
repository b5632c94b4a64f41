//! SHA-256 compression on the x86-64 SHA extensions (SHA-NI).
//!
//! This is the only module of the crate with `unsafe` code. Every
//! intrinsic runs inside [`compress_blocks`], which enables the CPU
//! features it needs; the one call into it sits in [`ShaNi::compress`],
//! and a [`ShaNi`] value exists only after [`ShaNi::detect`] saw those
//! features at run time.
//!
//! Register layout follows the instructions: `sha256rnds2` keeps the
//! working variables as two vectors, `ABEF` and `CDGH` (most significant
//! lane first), and takes two rounds' `W[t] + K[t]` in the low 64 bits
//! of its message operand. `sha256msg1`/`sha256msg2` compute the
//! message schedule four words at a time.

use crate::sha256::{BLOCK_LEN, K};
use std::arch::x86_64::{
    __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi64x,
    _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
    _mm_shuffle_epi8, _mm_storeu_si128,
};

/// Proof that this CPU runs SHA-NI and the SSE levels its code uses.
/// Only [`ShaNi::detect`] makes one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ShaNi(());

impl ShaNi {
    /// A token when this CPU reports `sha`, `sse2`, `ssse3` and
    /// `sse4.1`, else `None`. The standard library caches the CPUID
    /// probe, so this is a few loads after the first call.
    pub(crate) fn detect() -> Option<ShaNi> {
        let ok = is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse2")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1");
        ok.then_some(ShaNi(()))
    }

    /// Compresses `blocks`, a whole number of 64-byte blocks, into
    /// `state`.
    pub(crate) fn compress(self, state: &mut [u32; 8], blocks: &[u8]) {
        // SAFETY: `self` exists only because `ShaNi::detect` found
        // `sha`, `sse2`, `ssse3` and `sse4.1` with
        // `is_x86_feature_detected!`, which are exactly the features
        // `compress_blocks` enables.
        unsafe { compress_blocks(state, blocks) }
    }
}

/// Byte shuffle that turns each big-endian message word into a lane.
const BSWAP32: (i64, i64) = (0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);

/// The round constants at a fixed address, for vector loads.
static ROUND_K: [u32; 64] = K;

#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    // SAFETY: `state` is 32 readable bytes; `loadu` has no alignment
    // requirement.
    let (dcba, hgfe) = unsafe {
        let p = state.as_ptr().cast::<__m128i>();
        (_mm_loadu_si128(p), _mm_loadu_si128(p.add(1)))
    };
    // (a, b, c, d), (e, f, g, h) → ABEF, CDGH.
    let cdab = _mm_shuffle_epi32::<0xb1>(dcba);
    let efgh = _mm_shuffle_epi32::<0x1b>(hgfe);
    let mut abef = _mm_alignr_epi8::<8>(cdab, efgh);
    let mut cdgh = _mm_blend_epi16::<0xf0>(efgh, cdab);

    for block in blocks.chunks_exact(BLOCK_LEN) {
        let (abef_in, cdgh_in) = (abef, cdgh);
        let [mut w0, mut w1, mut w2, mut w3] = [
            load_be(block, 0),
            load_be(block, 1),
            load_be(block, 2),
            load_be(block, 3),
        ];
        rounds4(&mut abef, &mut cdgh, w0, 0);
        rounds4(&mut abef, &mut cdgh, w1, 1);
        rounds4(&mut abef, &mut cdgh, w2, 2);
        rounds4(&mut abef, &mut cdgh, w3, 3);
        // Each `wN` holds the message words of the last group that
        // wrote it: a ring of the last four groups.
        for group in (4..16).step_by(4) {
            w0 = schedule(w0, w1, w2, w3);
            rounds4(&mut abef, &mut cdgh, w0, group);
            w1 = schedule(w1, w2, w3, w0);
            rounds4(&mut abef, &mut cdgh, w1, group + 1);
            w2 = schedule(w2, w3, w0, w1);
            rounds4(&mut abef, &mut cdgh, w2, group + 2);
            w3 = schedule(w3, w0, w1, w2);
            rounds4(&mut abef, &mut cdgh, w3, group + 3);
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    // ABEF, CDGH → (a, b, c, d), (e, f, g, h).
    let feba = _mm_shuffle_epi32::<0x1b>(abef);
    let dchg = _mm_shuffle_epi32::<0xb1>(cdgh);
    let dcba = _mm_blend_epi16::<0xf0>(feba, dchg);
    let hgfe = _mm_alignr_epi8::<8>(dchg, feba);
    // SAFETY: `state` is 32 writable bytes; `storeu` has no alignment
    // requirement.
    unsafe {
        let p = state.as_mut_ptr().cast::<__m128i>();
        _mm_storeu_si128(p, dcba);
        _mm_storeu_si128(p.add(1), hgfe);
    }
}

/// Message words `4i .. 4i + 4` of `block`, one per lane.
#[inline]
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn load_be(block: &[u8], i: usize) -> __m128i {
    assert!(block.len() >= 16 * (i + 1));
    // SAFETY: the assert keeps bytes 16i..16i+16 in bounds; `loadu` has
    // no alignment requirement.
    let raw = unsafe { _mm_loadu_si128(block.as_ptr().add(16 * i).cast()) };
    _mm_shuffle_epi8(raw, _mm_set_epi64x(BSWAP32.0, BSWAP32.1))
}

/// Rounds `4g .. 4g + 4` on message words `w`.
#[inline]
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn rounds4(abef: &mut __m128i, cdgh: &mut __m128i, w: __m128i, g: usize) {
    assert!(g < 16);
    // SAFETY: `ROUND_K` has 64 words and g < 16, so words 4g..4g+4 are
    // in bounds; `loadu` has no alignment requirement.
    let k = unsafe { _mm_loadu_si128(ROUND_K.as_ptr().add(4 * g).cast()) };
    let wk = _mm_add_epi32(w, k);
    // Each `sha256rnds2` runs two rounds and returns the new ABEF; the
    // old ABEF becomes the new CDGH.
    *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
    *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32::<0x0e>(wk));
}

/// The next four message words from the last four groups, oldest
/// first: `W[t] = σ1(W[t-2]) + W[t-7] + σ0(W[t-15]) + W[t-16]`.
#[inline]
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
    let t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8::<4>(w3, w2));
    _mm_sha256msg2_epu32(t, w3)
}
