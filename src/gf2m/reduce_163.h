// reduce_163.h — the shift-reduce fold modulo x^163 + x^7 + x^6 + x^3 + 1.
//
// THE one fold definition. Every backend — the scalar field element
// (gf2_163.cpp), the interleaved hardware-clmul lane kernels and the
// VPCLMULQDQ vector kernels (lanes.cpp) — produces the same unreduced
// 326-bit carry-less product layout, and this header is the only place
// that knows how to fold it back into 163 bits. All variants (scalar
// word, ZMM/YMM word-vector) derive their shift distances from
// kPentanomialExps below, so the reduction polynomial is written exactly
// once: drift between the folds would silently break the 1-lane ≡ N-lane
// bit-identity contract.
#pragma once

#include <cstdint>

#include "gf2m/arch.h"

namespace medsec::gf2m {

/// x^163 = x^7 + x^6 + x^3 + 1 over GF(2): the exponents of the
/// reduction pentanomial's tail. Every fold below is generated from this
/// array (and from kFieldBits) alone.
inline constexpr unsigned kPentanomialExps[4] = {0, 3, 6, 7};
inline constexpr unsigned kFieldBits = 163;
/// Valid bits in the top limb (163 - 128 = 35).
inline constexpr unsigned kTopLimbBits = kFieldBits - 128;
inline constexpr std::uint64_t kTopLimbMask = (1ULL << kTopLimbBits) - 1;
/// Folding word i (bits >= 64i) down by 163 lands at bit offset
/// 64(i-3) + kWordFoldShift + e for each tail exponent e
/// (64*3 - 163 = 29).
inline constexpr unsigned kWordFoldShift = 192 - kFieldBits;  // 29

/// Reduce a 326-bit polynomial product p[0..5] modulo the field
/// polynomial into out[0..2] (bit 162 is the top bit of out[2]).
/// out may alias p[0..2].
inline void reduce326(const std::uint64_t p_in[6], std::uint64_t out[3]) {
  // Named words rather than a local array: the fold then stays in
  // registers, where an array invites the vectorizer to pair words through
  // the stack and stall on store forwarding (the fold costs ~3x more
  // out of line).
  std::uint64_t p0 = p_in[0], p1 = p_in[1], p2 = p_in[2], p3 = p_in[3];
  // Fold word t (bits >= 64i) into words i-3 and i-2: bit 64*i + j reduces
  // to exponent 64*(i-3) + (j + 29), contributing at offsets
  // kPentanomialExps from there; the shifts straddle the two words.
  // No data-dependent zero-word skip here: the fold runs the same
  // instruction sequence for every input (the ct_audit discipline — a
  // skipped word is a timing tell), and a few unconditional shift/XORs
  // of a zero word cost nothing next to the mispredict they replace.
  const auto fold = [](std::uint64_t t, std::uint64_t& lo_word,
                       std::uint64_t& hi_word) {
    std::uint64_t lo = 0, hi = 0;
    for (const unsigned e : kPentanomialExps) {
      lo ^= t << (kWordFoldShift + e);
      hi ^= t >> (64 - kWordFoldShift - e);
    }
    lo_word ^= lo;
    hi_word ^= hi;
  };
  fold(p_in[5], p2, p3);  // words 5..3, top down: word 3 takes in
  fold(p_in[4], p1, p2);  // word 5's fold before it is folded itself
  fold(p3, p0, p1);
  // Fold the residual bits 163..191 living in word 2 above bit 35.
  const std::uint64_t t = p2 >> kTopLimbBits;
  std::uint64_t tail = 0;
  for (const unsigned e : kPentanomialExps) tail ^= t << e;
  out[0] = p0 ^ tail;
  out[1] = p1;
  out[2] = p2 & kTopLimbMask;
}

#if MEDSEC_ARCH_X86_64

// GCC's unmasked AVX-512 shift intrinsics expand through
// _mm512_undefined_epi32(), which GCC 12 flags as use-of-uninitialized
// (bug PR105593). Header-wide false positive, not ours.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

// Word-vector forms of the same fold for the VPCLMULQDQ lane kernels:
// p[w] holds word w of the unreduced product for 8 (ZMM) or 4 (YMM)
// independent lanes, structure-of-arrays. Same shift schedule as the
// scalar reduce326, derived from the same constants; the data-dependent
// zero-word skip is dropped (a vector XOR of zero contributions is free
// and branch-free).

__attribute__((target("avx512f"))) inline void reduce326_x8(
    const __m512i p_in[6], __m512i out[3]) {
  __m512i p[6] = {p_in[0], p_in[1], p_in[2], p_in[3], p_in[4], p_in[5]};
  for (std::size_t i = 5; i >= 3; --i) {
    const __m512i t = p[i];
    __m512i lo = _mm512_setzero_si512(), hi = lo;
    for (const unsigned e : kPentanomialExps) {
      lo = _mm512_xor_si512(lo, _mm512_slli_epi64(t, kWordFoldShift + e));
      hi = _mm512_xor_si512(hi, _mm512_srli_epi64(t, 64 - kWordFoldShift - e));
    }
    p[i - 3] = _mm512_xor_si512(p[i - 3], lo);
    p[i - 2] = _mm512_xor_si512(p[i - 2], hi);
  }
  const __m512i t = _mm512_srli_epi64(p[2], kTopLimbBits);
  __m512i tail = _mm512_setzero_si512();
  for (const unsigned e : kPentanomialExps)
    tail = _mm512_xor_si512(tail, _mm512_slli_epi64(t, e));
  out[0] = _mm512_xor_si512(p[0], tail);
  out[1] = p[1];
  out[2] = _mm512_and_si512(p[2], _mm512_set1_epi64(kTopLimbMask));
}

__attribute__((target("avx2"))) inline void reduce326_x4(
    const __m256i p_in[6], __m256i out[3]) {
  __m256i p[6] = {p_in[0], p_in[1], p_in[2], p_in[3], p_in[4], p_in[5]};
  for (std::size_t i = 5; i >= 3; --i) {
    const __m256i t = p[i];
    __m256i lo = _mm256_setzero_si256(), hi = lo;
    for (const unsigned e : kPentanomialExps) {
      lo = _mm256_xor_si256(lo, _mm256_slli_epi64(t, kWordFoldShift + e));
      hi = _mm256_xor_si256(hi, _mm256_srli_epi64(t, 64 - kWordFoldShift - e));
    }
    p[i - 3] = _mm256_xor_si256(p[i - 3], lo);
    p[i - 2] = _mm256_xor_si256(p[i - 2], hi);
  }
  const __m256i t = _mm256_srli_epi64(p[2], kTopLimbBits);
  __m256i tail = _mm256_setzero_si256();
  for (const unsigned e : kPentanomialExps)
    tail = _mm256_xor_si256(tail, _mm256_slli_epi64(t, e));
  out[0] = _mm256_xor_si256(p[0], tail);
  out[1] = p[1];
  out[2] = _mm256_and_si256(p[2], _mm256_set1_epi64x(kTopLimbMask));
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

#endif  // MEDSEC_ARCH_X86_64

}  // namespace medsec::gf2m
