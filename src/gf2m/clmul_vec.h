// clmul_vec.h — the VPCLMULQDQ lane layer: vector-width types and the
// unreduced product blocks (internal).
//
// VPCLMULQDQ performs four independent 64x64 carry-less multiplies per
// instruction across the 128-bit lanes of a ZMM register (two per YMM in
// the VEX form). With the batch field layer's structure-of-arrays
// operands, limb word l of 8 consecutive lanes loads straight into one
// ZMM, and the 3-limb Karatsuba schedule (6 products per lane) becomes
// 12 VPCLMULQDQ instructions per 8 lanes — 48 carry-less multiplies —
// with the products staying vector-resident through recombination and
// the shift-reduce fold (reduce_163.h). The even/odd interleave trick:
//
//   Te = VPCLMULQDQ(A, B, 0x00)   products of SoA lanes 0,2,4,6
//   To = VPCLMULQDQ(A, B, 0x11)   products of SoA lanes 1,3,5,7
//
// leaves each 128-bit register lane holding one full (lo, hi) product,
// and because unpacklo/unpackhi_epi64 interleave qwords per 128-bit
// lane, UNPACKLO(Te, To) is exactly the SoA vector of product low words
// (lanes 0..7 in order) and UNPACKHI the high words — the gather back to
// word-major costs one shuffle per product.
//
// The schedule is written once, over a vector-width type W: Zmm (8 lanes,
// VPCLMULQDQ + AVX-512) or Ymm (4 lanes, VEX VPCLMULQDQ + AVX2). A width
// type names its register type V, its lane count and the instructions
// used; each member carries its width's target. The blocks below,
// reduce326_vec and the kernels in lanes.cpp carry none: always inlined,
// they compile only inside a lane entry that carries the target.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "gf2m/arch.h"
#include "gf2m/backend.h"
#include "gf2m/reduce_163.h"

#if MEDSEC_ARCH_X86_64

// vpclmulqdq does not imply the legacy 128-bit feature set for the
// compiler: pclmul+sse4.1 are listed too so the scalar tail kernels
// (clmul_hw.h) can inline into the vector loops.
#define MEDSEC_TARGET_VPCLMUL512 \
  __attribute__((                \
      target("vpclmulqdq,avx512f,avx512bw,avx512vl,pclmul,sse4.1")))
#define MEDSEC_TARGET_VPCLMUL256 \
  __attribute__((target("vpclmulqdq,avx2,pclmul,sse4.1")))

namespace medsec::gf2m::vclmul {

// GCC's unmasked AVX-512 unpack/shift intrinsics expand through
// _mm512_undefined_epi32(), which GCC 12 flags as use-of-uninitialized
// (bug PR105593). Header-wide false positive, not ours. -Wpsabi: GCC
// warns at each call passing a vector from code without that ISA; the
// blocks make such calls, but only ever run inlined into an entry that
// has it, so no call crosses that ABI boundary.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wpsabi"
#endif

/// 8 lanes per ZMM register.
struct Zmm {
  using V = __m512i;
  static constexpr std::size_t kLanes = 8;
  MEDSEC_TARGET_VPCLMUL512
  static V load(const std::uint64_t* p) { return _mm512_loadu_si512(p); }
  MEDSEC_TARGET_VPCLMUL512
  static void store(std::uint64_t* p, V v) { _mm512_storeu_si512(p, v); }
  MEDSEC_TARGET_VPCLMUL512
  static V set1(long long w) { return _mm512_set1_epi64(w); }
  MEDSEC_TARGET_VPCLMUL512
  static V xor_(V a, V b) { return _mm512_xor_si512(a, b); }
  MEDSEC_TARGET_VPCLMUL512
  static V and_(V a, V b) { return _mm512_and_si512(a, b); }
  MEDSEC_TARGET_VPCLMUL512
  static V shl(V v, int n) { return _mm512_slli_epi64(v, n); }
  MEDSEC_TARGET_VPCLMUL512
  static V shr(V v, int n) { return _mm512_srli_epi64(v, n); }
  /// Carry-less products of each 128-bit lane's even / odd words.
  MEDSEC_TARGET_VPCLMUL512
  static V clmul00(V a, V b) { return _mm512_clmulepi64_epi128(a, b, 0x00); }
  MEDSEC_TARGET_VPCLMUL512
  static V clmul11(V a, V b) { return _mm512_clmulepi64_epi128(a, b, 0x11); }
  MEDSEC_TARGET_VPCLMUL512
  static V unpack_lo(V a, V b) { return _mm512_unpacklo_epi64(a, b); }
  MEDSEC_TARGET_VPCLMUL512
  static V unpack_hi(V a, V b) { return _mm512_unpackhi_epi64(a, b); }
  /// Bit 0 of choice[0..7] as a mask register.
  MEDSEC_TARGET_VPCLMUL512
  static __mmask8 cswap_mask(const std::uint8_t* choice) {
    return static_cast<__mmask8>(_mm_test_epi8_mask(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(choice)),
        _mm_set1_epi8(1)));
  }
  /// Per lane: y where the mask is set, x elsewhere (a masked blend).
  MEDSEC_TARGET_VPCLMUL512
  static V select(__mmask8 m, V x, V y) {
    return _mm512_mask_blend_epi64(m, x, y);
  }
};

/// 4 lanes per YMM register.
struct Ymm {
  using V = __m256i;
  static constexpr std::size_t kLanes = 4;
  MEDSEC_TARGET_VPCLMUL256
  static V load(const std::uint64_t* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  MEDSEC_TARGET_VPCLMUL256
  static void store(std::uint64_t* p, V v) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  }
  MEDSEC_TARGET_VPCLMUL256
  static V set1(long long w) { return _mm256_set1_epi64x(w); }
  MEDSEC_TARGET_VPCLMUL256
  static V xor_(V a, V b) { return _mm256_xor_si256(a, b); }
  MEDSEC_TARGET_VPCLMUL256
  static V and_(V a, V b) { return _mm256_and_si256(a, b); }
  MEDSEC_TARGET_VPCLMUL256
  static V shl(V v, int n) { return _mm256_slli_epi64(v, n); }
  MEDSEC_TARGET_VPCLMUL256
  static V shr(V v, int n) { return _mm256_srli_epi64(v, n); }
  MEDSEC_TARGET_VPCLMUL256
  static V clmul00(V a, V b) { return _mm256_clmulepi64_epi128(a, b, 0x00); }
  MEDSEC_TARGET_VPCLMUL256
  static V clmul11(V a, V b) { return _mm256_clmulepi64_epi128(a, b, 0x11); }
  MEDSEC_TARGET_VPCLMUL256
  static V unpack_lo(V a, V b) { return _mm256_unpacklo_epi64(a, b); }
  MEDSEC_TARGET_VPCLMUL256
  static V unpack_hi(V a, V b) { return _mm256_unpackhi_epi64(a, b); }
  /// Bit 0 of choice[0..3] widened to an all-ones or all-zero word.
  MEDSEC_TARGET_VPCLMUL256
  static V cswap_mask(const std::uint8_t* choice) {
    std::uint32_t bytes;
    std::memcpy(&bytes, choice, sizeof bytes);
    const V bit = _mm256_and_si256(
        _mm256_cvtepu8_epi64(_mm_cvtsi32_si128(static_cast<int>(bytes))),
        _mm256_set1_epi64x(1));
    return _mm256_sub_epi64(_mm256_setzero_si256(), bit);
  }
  /// Per lane: y where the mask is set, x elsewhere (the XOR-mask swap
  /// of Gf163::cswap).
  MEDSEC_TARGET_VPCLMUL256
  static V select(V m, V x, V y) {
    return _mm256_xor_si256(x, _mm256_and_si256(_mm256_xor_si256(x, y), m));
  }
};

/// Limb words of the W::kLanes consecutive SoA lanes from lane i.
template <class W>
[[gnu::always_inline]] inline void load3(LaneView a, std::size_t i,
                                         typename W::V v[3]) {
  v[0] = W::load(a.l0 + i);
  v[1] = W::load(a.l1 + i);
  v[2] = W::load(a.l2 + i);
}

/// Unreduced 3x3-limb Karatsuba product of W::kLanes SoA lanes: p[w] =
/// word w of a[i]·b[i]. 6 carry-less multiplies per lane, XOR
/// recombination and 10 qword unpacks, all register-resident.
template <class W>
[[gnu::always_inline]] inline void mul326(const typename W::V a[3],
                                          const typename W::V b[3],
                                          typename W::V p[6]) {
  using V = typename W::V;
  const V sa01 = W::xor_(a[0], a[1]);
  const V sb01 = W::xor_(b[0], b[1]);
  const V sa02 = W::xor_(a[0], a[2]);
  const V sb02 = W::xor_(b[0], b[2]);
  const V sa12 = W::xor_(a[1], a[2]);
  const V sb12 = W::xor_(b[1], b[2]);

  const V d0e = W::clmul00(a[0], b[0]);
  const V d0o = W::clmul11(a[0], b[0]);
  const V d1e = W::clmul00(a[1], b[1]);
  const V d1o = W::clmul11(a[1], b[1]);
  const V d2e = W::clmul00(a[2], b[2]);
  const V d2o = W::clmul11(a[2], b[2]);
  const V e01e = W::clmul00(sa01, sb01);
  const V e01o = W::clmul11(sa01, sb01);
  const V e02e = W::clmul00(sa02, sb02);
  const V e02o = W::clmul11(sa02, sb02);
  const V e12e = W::clmul00(sa12, sb12);
  const V e12o = W::clmul11(sa12, sb12);

  // Same recombination as mul326_karatsuba, per product half.
  const V d01e = W::xor_(d0e, d1e);
  const V d01o = W::xor_(d0o, d1o);
  const V c1e = W::xor_(e01e, d01e);
  const V c1o = W::xor_(e01o, d01o);
  const V c2e = W::xor_(e02e, W::xor_(d01e, d2e));
  const V c2o = W::xor_(e02o, W::xor_(d01o, d2o));
  const V c3e = W::xor_(e12e, W::xor_(d1e, d2e));
  const V c3o = W::xor_(e12o, W::xor_(d1o, d2o));

  p[0] = W::unpack_lo(d0e, d0o);
  p[1] = W::xor_(W::unpack_hi(d0e, d0o), W::unpack_lo(c1e, c1o));
  p[2] = W::xor_(W::unpack_hi(c1e, c1o), W::unpack_lo(c2e, c2o));
  p[3] = W::xor_(W::unpack_hi(c2e, c2o), W::unpack_lo(c3e, c3o));
  p[4] = W::xor_(W::unpack_hi(c3e, c3o), W::unpack_lo(d2e, d2o));
  p[5] = W::unpack_hi(d2e, d2o);
}

/// Unreduced squares of W::kLanes SoA lanes (squaring over GF(2) has no
/// cross terms: one carry-less self-multiply per limb).
template <class W>
[[gnu::always_inline]] inline void sqr326(const typename W::V a[3],
                                          typename W::V p[6]) {
  for (std::size_t l = 0; l < 3; ++l) {
    const typename W::V se = W::clmul00(a[l], a[l]);
    const typename W::V so = W::clmul11(a[l], a[l]);
    p[2 * l] = W::unpack_lo(se, so);
    p[2 * l + 1] = W::unpack_hi(se, so);
  }
}

/// Fold + store W::kLanes lanes back to SoA memory (out may alias the
/// inputs: everything for these lanes was loaded before this call).
template <class W>
[[gnu::always_inline]] inline void reduce_store(const typename W::V p[6],
                                                LaneSpan out, std::size_t i) {
  typename W::V r[3];
  reduce326_vec<W>(p, r);
  W::store(out.l0 + i, r[0]);
  W::store(out.l1 + i, r[1]);
  W::store(out.l2 + i, r[2]);
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

}  // namespace medsec::gf2m::vclmul

#endif  // MEDSEC_ARCH_X86_64
