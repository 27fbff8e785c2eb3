// reduce_163.h — the folds modulo x^163 + x^7 + x^6 + x^3 + 1.
//
// Every way this repo reduces a 326-bit carry-less product back into 163
// bits is defined here, and every one is generated from kPentanomialExps
// and kWordFoldShift below, so the reduction polynomial is written
// exactly once. There are two folds:
//
//   * the shift fold (reduce326, and reduce326_vec: the same fold on
//     word vectors, written once for every vector width): the product as
//     six 64-bit words, each word above bit 192 folded down by shifts and
//     XORs. The karatsuba backend, the AArch64 PMULL kernel, the paired
//     clmulwide loops and the VPCLMULQDQ lane kernels use it;
//   * the clmul fold (reduce326_clmul, x86-64): the product in three XMM
//     registers, words 3-5 folded by three carry-less multiplies with
//     x^192 mod f. The x86-64 `clmul` field kernel (clmul_hw.h) uses it,
//     so its product never leaves the vector registers.
//
// Both end with the same fold of the 29 residual bits 163..191, and
// reduction modulo f is unique, so the two agree bit for bit: drift
// between them would break the 1-lane ≡ N-lane and karatsuba ≡ clmul
// bit-identity contracts.
#pragma once

#include <cstddef>
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
/// x^163 mod f = x^7 + x^6 + x^3 + 1 as a polynomial word (0xC9).
inline constexpr std::uint64_t kPentanomialTail = [] {
  std::uint64_t t = 0;
  for (const unsigned e : kPentanomialExps) t |= 1ULL << e;
  return t;
}();
/// x^192 mod f = x^29 · (x^7 + x^6 + x^3 + 1): one carry-less multiply
/// by this word folds a product word down by 192 bits.
inline constexpr std::uint64_t kX192ModF = kPentanomialTail << kWordFoldShift;

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

/// The clmul fold: reduce a product held as three XMM registers (bits
/// 0-127, 128-255 and 256-383) into limbs 0-1 (`r01`) and limb 2 (the
/// low half of `r2`, high half zero).
///
/// Words 3, 4 and 5 each fold down by 192 bits with one carry-less
/// multiply by kX192ModF, landing at bit offsets 0, 64 and 128. The
/// operands are a product of two reduced elements (or the XOR of two
/// such products), so word 5 holds at most 5 bits and its fold stays
/// below bit 192: the three multiplies are independent. The shift fold
/// has no such precondition; it reduces any six words. What is left
/// above bit 162 — bits 163..191 of word 2 — folds by the same shifts
/// as reduce326's last step. Branch-free and table-free.
__attribute__((target("pclmul"))) inline void reduce326_clmul(
    __m128i lo, __m128i mid, __m128i hi, __m128i& r01, __m128i& r2) {
  const __m128i k = _mm_cvtsi64_si128(static_cast<long long>(kX192ModF));
  const __m128i f3 = _mm_clmulepi64_si128(mid, k, 0x01);  // word 3 · k
  const __m128i f4 = _mm_clmulepi64_si128(hi, k, 0x00);   // word 4 · k
  const __m128i f5 = _mm_clmulepi64_si128(hi, k, 0x01);   // word 5 · k
  lo = _mm_xor_si128(_mm_xor_si128(lo, f3), _mm_slli_si128(f4, 8));
  // Word 2 in the low half; the high half (word 3) is spent.
  const __m128i w2 = _mm_move_epi64(
      _mm_xor_si128(_mm_xor_si128(mid, f5), _mm_srli_si128(f4, 8)));
  const __m128i t = _mm_srli_epi64(w2, kTopLimbBits);
  __m128i tail = _mm_setzero_si128();
  for (const unsigned e : kPentanomialExps)
    tail = _mm_xor_si128(tail, _mm_slli_epi64(t, static_cast<int>(e)));
  r01 = _mm_xor_si128(lo, tail);
  r2 = _mm_and_si128(
      w2, _mm_cvtsi64_si128(static_cast<long long>(kTopLimbMask)));
}

#endif  // MEDSEC_ARCH_X86_64

/// The shift fold on word vectors, for the VPCLMULQDQ lane kernels:
/// p[w] holds word w of the unreduced product for W::kLanes lanes, W a
/// vector-width type (clmul_vec.h). Same shift schedule as reduce326,
/// from the same constants. Always inlined into a caller that carries
/// W's target (-Wpsabi: see clmul_vec.h).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wpsabi"
#endif
template <class W>
[[gnu::always_inline]] inline void reduce326_vec(const typename W::V p_in[6],
                                                 typename W::V out[3]) {
  using V = typename W::V;
  V p[6] = {p_in[0], p_in[1], p_in[2], p_in[3], p_in[4], p_in[5]};
  for (std::size_t i = 5; i >= 3; --i) {
    const V t = p[i];
    V lo{}, hi{};
    for (const unsigned e : kPentanomialExps) {
      lo = W::xor_(lo, W::shl(t, kWordFoldShift + e));
      hi = W::xor_(hi, W::shr(t, 64 - kWordFoldShift - e));
    }
    p[i - 3] = W::xor_(p[i - 3], lo);
    p[i - 2] = W::xor_(p[i - 2], hi);
  }
  const V t = W::shr(p[2], kTopLimbBits);
  V tail{};
  for (const unsigned e : kPentanomialExps) tail = W::xor_(tail, W::shl(t, e));
  out[0] = W::xor_(p[0], tail);
  out[1] = p[1];
  out[2] = W::and_(p[2], W::set1(kTopLimbMask));
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

}  // namespace medsec::gf2m
