// clmul_hw.h — hardware carry-less multiply kernels (internal).
//
// The 3x3-limb carry-less product on x86-64 PCLMULQDQ and AArch64 PMULL,
// both on the same 3-limb Karatsuba schedule (6 hardware carry-less
// multiplies per product).
//
// On x86-64 the product stays in three XMM registers (Xmm326) and
// XmmKernel, the `clmul` field kernel (field_ops.h, instantiated only in
// clmul_instances.cpp), folds it there with reduce326_clmul
// (reduce_163.h), three more carry-less multiplies, so a field operation
// never moves its product through general registers. The lane kernels'
// single-lane tails (lanes.cpp) run XmmKernel too. mul326_clmul /
// sqr326_clmul store the same product as six words, for the backend
// vtable and the paired clmulwide loops, which fold with reduce326.
// The AArch64 kernel writes six words and keeps reduce326.
//
// The x86 kernels need PCLMULQDQ and nothing newer: lane moves use SSE2
// (byte shifts, _mm_move_epi64, 64-bit loads and stores) rather than
// SSE4.1, so clmul_instances.cpp, compiled with -mpclmul alone, can
// inline them.
//
// The hardware paths use GCC/Clang-only constructs (target attributes,
// __builtin_cpu_supports), so the gates require those compilers too; other
// compilers fall back to the karatsuba backend.
#pragma once

#include <cstdint>

#include "gf2m/arch.h"
#include "gf2m/gf2_163.h"
#include "gf2m/reduce_163.h"

namespace medsec::gf2m::hwclmul {

#if MEDSEC_ARCH_X86_64

/// An unreduced product in three XMM registers: bits 0-127, 128-255 and
/// 256-383 (words 0-1, 2-3 and 4-5).
struct Xmm326 {
  __m128i lo, mid, hi;

  friend Xmm326 operator^(const Xmm326& a, const Xmm326& b) {
    return {_mm_xor_si128(a.lo, b.lo), _mm_xor_si128(a.mid, b.mid),
            _mm_xor_si128(a.hi, b.hi)};
  }
};

/// Limbs 0-1 of a in one register, limb 2 in the low half of another.
inline __m128i load01(const std::uint64_t a[3]) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(a));
}
inline __m128i load2(const std::uint64_t a[3]) {
  return _mm_cvtsi64_si128(static_cast<long long>(a[2]));
}

/// The x86-64 `clmul` field kernel: the Karatsuba product and the square
/// into an Xmm326, and the clmul fold back to an element.
struct XmmKernel {
  using Wide = Xmm326;

  __attribute__((target("pclmul"))) static Xmm326 mul(
      const std::uint64_t a[3], const std::uint64_t b[3]) {
    const __m128i a01 = load01(a), b01 = load01(b);
    const __m128i a2 = load2(a), b2 = load2(b);

    const __m128i d0 = _mm_clmulepi64_si128(a01, b01, 0x00);
    const __m128i d1 = _mm_clmulepi64_si128(a01, b01, 0x11);
    const __m128i d2 = _mm_clmulepi64_si128(a2, b2, 0x00);

    const __m128i a1x = _mm_srli_si128(a01, 8);  // a1 in the low lane
    const __m128i b1x = _mm_srli_si128(b01, 8);
    const __m128i e01 = _mm_clmulepi64_si128(_mm_xor_si128(a01, a1x),
                                             _mm_xor_si128(b01, b1x), 0x00);
    const __m128i e02 = _mm_clmulepi64_si128(_mm_xor_si128(a01, a2),
                                             _mm_xor_si128(b01, b2), 0x00);
    const __m128i e12 = _mm_clmulepi64_si128(_mm_xor_si128(a1x, a2),
                                             _mm_xor_si128(b1x, b2), 0x00);

    // Cross products c_k land at bit 64k: word k-1 and word k.
    const __m128i d01 = _mm_xor_si128(d0, d1);
    const __m128i c1 = _mm_xor_si128(e01, d01);
    const __m128i c2 = _mm_xor_si128(e02, _mm_xor_si128(d01, d2));
    const __m128i c3 = _mm_xor_si128(e12, _mm_xor_si128(d1, d2));
    return {_mm_xor_si128(d0, _mm_slli_si128(c1, 8)),
            _mm_xor_si128(_mm_xor_si128(c2, _mm_srli_si128(c1, 8)),
                          _mm_slli_si128(c3, 8)),
            _mm_xor_si128(d2, _mm_srli_si128(c3, 8))};
  }

  /// Squaring over GF(2) has no cross terms: limb i squares into words
  /// 2i and 2i+1, one carry-less self-multiply each.
  __attribute__((target("pclmul"))) static Xmm326 sqr(
      const std::uint64_t a[3]) {
    const __m128i a01 = load01(a), a2 = load2(a);
    return {_mm_clmulepi64_si128(a01, a01, 0x00),
            _mm_clmulepi64_si128(a01, a01, 0x11),
            _mm_clmulepi64_si128(a2, a2, 0x00)};
  }

  /// The element, written as one 16-byte store (limbs 0-1) and one
  /// 8-byte store (limb 2): the shape the next product loads it in.
  __attribute__((target("pclmul"))) static Gf163 fold(const Xmm326& p) {
    __m128i r01, r2;
    reduce326_clmul(p.lo, p.mid, p.hi, r01, r2);
    Gf163 out;
    _mm_storeu_si128(reinterpret_cast<__m128i*>(&out), r01);
    _mm_storel_epi64(reinterpret_cast<__m128i*>(
                         reinterpret_cast<unsigned char*>(&out) + 16),
                     r2);
    return out;
  }
};

/// The kernel's product as six words (the MulFn / SqrFn contract).
inline void store326(const Xmm326& p, std::uint64_t out[6]) {
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out), p.lo);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 2), p.mid);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 4), p.hi);
}

__attribute__((target("pclmul"))) inline void mul326_clmul(
    const std::uint64_t a[3], const std::uint64_t b[3], std::uint64_t p[6]) {
  store326(XmmKernel::mul(a, b), p);
}

__attribute__((target("pclmul"))) inline void sqr326_clmul(
    const std::uint64_t a[3], std::uint64_t p[6]) {
  store326(XmmKernel::sqr(a), p);
}

inline bool clmul_supported() { return __builtin_cpu_supports("pclmul") != 0; }

#elif MEDSEC_ARCH_AARCH64

// The same 3-limb Karatsuba schedule as the x86 path, on PMULL. The six
// 128-bit products and the XOR folding stay in NEON registers; only the
// final five cross-product recombinations touch general registers (the
// (lo, hi) lane splits straddle product boundaries, as on x86).

__attribute__((target("+crypto"))) inline uint64x2_t pmull128(
    std::uint64_t a, std::uint64_t b) {
  return vreinterpretq_u64_p128(
      vmull_p64(static_cast<poly64_t>(a), static_cast<poly64_t>(b)));
}

__attribute__((target("+crypto"))) inline void mul326_clmul(
    const std::uint64_t a[3], const std::uint64_t b[3], std::uint64_t p[6]) {
  const uint64x2_t d0 = pmull128(a[0], b[0]);
  const uint64x2_t d1 = pmull128(a[1], b[1]);
  const uint64x2_t d2 = pmull128(a[2], b[2]);
  const uint64x2_t e01 = pmull128(a[0] ^ a[1], b[0] ^ b[1]);
  const uint64x2_t e02 = pmull128(a[0] ^ a[2], b[0] ^ b[2]);
  const uint64x2_t e12 = pmull128(a[1] ^ a[2], b[1] ^ b[2]);

  const uint64x2_t d01 = veorq_u64(d0, d1);
  const uint64x2_t c1 = veorq_u64(e01, d01);
  const uint64x2_t c2 = veorq_u64(e02, veorq_u64(d01, d2));
  const uint64x2_t c3 = veorq_u64(e12, veorq_u64(d1, d2));

  p[0] = vgetq_lane_u64(d0, 0);
  p[1] = vgetq_lane_u64(d0, 1) ^ vgetq_lane_u64(c1, 0);
  p[2] = vgetq_lane_u64(c1, 1) ^ vgetq_lane_u64(c2, 0);
  p[3] = vgetq_lane_u64(c2, 1) ^ vgetq_lane_u64(c3, 0);
  p[4] = vgetq_lane_u64(c3, 1) ^ vgetq_lane_u64(d2, 0);
  p[5] = vgetq_lane_u64(d2, 1);
}

__attribute__((target("+crypto"))) inline void sqr326_clmul(
    const std::uint64_t a[3], std::uint64_t p[6]) {
  for (std::size_t i = 0; i < 3; ++i) {
    const uint64x2_t s = pmull128(a[i], a[i]);
    p[2 * i] = vgetq_lane_u64(s, 0);
    p[2 * i + 1] = vgetq_lane_u64(s, 1);
  }
}

inline bool clmul_supported() {
#if defined(__ARM_FEATURE_AES) || defined(__ARM_FEATURE_CRYPTO)
  // The crypto extensions are part of the build target: every CPU this
  // binary may legally run on has PMULL.
  return true;
#elif defined(__APPLE__)
  return true;  // every Apple aarch64 core implements PMULL
#elif defined(MEDSEC_HAVE_AUXV) && defined(HWCAP_PMULL)
  return (getauxval(AT_HWCAP) & HWCAP_PMULL) != 0;
#else
  return false;  // no detection channel: stay on the software paths
#endif
}

#else

inline bool clmul_supported() { return false; }

#endif

}  // namespace medsec::gf2m::hwclmul
