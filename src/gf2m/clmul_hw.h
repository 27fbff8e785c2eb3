// clmul_hw.h — hardware carry-less multiply kernels (internal).
//
// The unreduced 3x3-limb product on x86-64 PCLMULQDQ and AArch64 PMULL,
// shared between the scalar backend dispatch (backend.cpp) and the
// wide-lane kernels (lanes.cpp). Both run the same 3-limb Karatsuba
// schedule (6 hardware carry-less multiplies per product).
//
// The hardware paths use GCC/Clang-only constructs (target attributes,
// __builtin_cpu_supports), so the gates require those compilers too; other
// compilers fall back to the karatsuba backend.
#pragma once

#include <cstdint>

#include "gf2m/arch.h"

namespace medsec::gf2m::hwclmul {

#if MEDSEC_ARCH_X86_64

__attribute__((target("pclmul,sse4.1"))) inline void mul326_clmul(
    const std::uint64_t a[3], const std::uint64_t b[3], std::uint64_t p[6]) {
  const __m128i a01 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a));
  const __m128i b01 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b));
  const __m128i a2 = _mm_cvtsi64_si128(static_cast<long long>(a[2]));
  const __m128i b2 = _mm_cvtsi64_si128(static_cast<long long>(b[2]));

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

  const __m128i d01 = _mm_xor_si128(d0, d1);
  const __m128i c1 = _mm_xor_si128(e01, d01);
  const __m128i c2 = _mm_xor_si128(e02, _mm_xor_si128(d01, d2));
  const __m128i c3 = _mm_xor_si128(e12, _mm_xor_si128(d1, d2));

  p[0] = static_cast<std::uint64_t>(_mm_cvtsi128_si64(d0));
  p[1] = static_cast<std::uint64_t>(_mm_extract_epi64(d0, 1)) ^
         static_cast<std::uint64_t>(_mm_cvtsi128_si64(c1));
  p[2] = static_cast<std::uint64_t>(_mm_extract_epi64(c1, 1)) ^
         static_cast<std::uint64_t>(_mm_cvtsi128_si64(c2));
  p[3] = static_cast<std::uint64_t>(_mm_extract_epi64(c2, 1)) ^
         static_cast<std::uint64_t>(_mm_cvtsi128_si64(c3));
  p[4] = static_cast<std::uint64_t>(_mm_extract_epi64(c3, 1)) ^
         static_cast<std::uint64_t>(_mm_cvtsi128_si64(d2));
  p[5] = static_cast<std::uint64_t>(_mm_extract_epi64(d2, 1));
}

__attribute__((target("pclmul,sse4.1"))) inline void sqr326_clmul(
    const std::uint64_t a[3], std::uint64_t p[6]) {
  for (std::size_t i = 0; i < 3; ++i) {
    const __m128i v = _mm_cvtsi64_si128(static_cast<long long>(a[i]));
    const __m128i s = _mm_clmulepi64_si128(v, v, 0x00);
    p[2 * i] = static_cast<std::uint64_t>(_mm_cvtsi128_si64(s));
    p[2 * i + 1] = static_cast<std::uint64_t>(_mm_extract_epi64(s, 1));
  }
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
