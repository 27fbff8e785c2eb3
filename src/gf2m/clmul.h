// clmul.h — portable carry-less (polynomial) 64x64 -> 128 multiplication,
// and the software 3x3-limb product kernels built on it.
//
// Software emulation of a carry-less multiplier using the classic 4-bit
// window method with top-bit correction (the same scheme OpenSSL uses for
// GF(2^m) arithmetic). Branchless: the correction terms are applied under
// arithmetic masks so the instruction sequence does not depend on operand
// values. mul326_karatsuba / sqr326_portable are the `karatsuba` backend's
// kernels (backend.h); field_ops.h inlines them into the formula layers.
#pragma once

#include <cstddef>
#include <cstdint>

namespace medsec::gf2m {

/// Carry-less multiply: (lo, hi) = a (x) b over GF(2)[x].
inline void clmul64(std::uint64_t a, std::uint64_t b, std::uint64_t& lo,
                    std::uint64_t& hi) {
  // Window table over the low 61 bits of a, so entries shifted by up to 3
  // never lose bits off the top of a 64-bit word.
  const std::uint64_t top3 = a >> 61;
  const std::uint64_t a0 = a & 0x1FFFFFFFFFFFFFFFULL;
  std::uint64_t tab[16];
  tab[0] = 0;
  tab[1] = a0;
  tab[2] = a0 << 1;
  tab[3] = tab[2] ^ a0;
  tab[4] = tab[2] << 1;
  tab[5] = tab[4] ^ a0;
  tab[6] = tab[3] << 1;
  tab[7] = tab[6] ^ a0;
  tab[8] = tab[4] << 1;
  tab[9] = tab[8] ^ a0;
  tab[10] = tab[5] << 1;
  tab[11] = tab[10] ^ a0;
  tab[12] = tab[6] << 1;
  tab[13] = tab[12] ^ a0;
  tab[14] = tab[7] << 1;
  tab[15] = tab[14] ^ a0;

  std::uint64_t l = tab[b & 0xF];
  std::uint64_t h = 0;
  for (unsigned i = 4; i < 64; i += 4) {
    const std::uint64_t t = tab[(b >> i) & 0xF];
    l ^= t << i;
    h ^= t >> (64 - i);
  }

  // Fold back the top three bits of a, branchlessly.
  const std::uint64_t m0 = 0 - (top3 & 1);
  const std::uint64_t m1 = 0 - ((top3 >> 1) & 1);
  const std::uint64_t m2 = 0 - ((top3 >> 2) & 1);
  l ^= (b << 61) & m0;
  h ^= (b >> 3) & m0;
  l ^= (b << 62) & m1;
  h ^= (b >> 2) & m1;
  l ^= (b << 63) & m2;
  h ^= (b >> 1) & m2;

  lo = l;
  hi = h;
}

/// Carry-less square: spreads the bits of a with zero interleave.
/// (lo, hi) = a (x) a. Squaring over GF(2) is linear, so this is just a
/// bit-expansion.
inline void clsqr64(std::uint64_t a, std::uint64_t& lo, std::uint64_t& hi) {
  auto spread32 = [](std::uint32_t x) -> std::uint64_t {
    std::uint64_t v = x;
    v = (v | (v << 16)) & 0x0000FFFF0000FFFFULL;
    v = (v | (v << 8)) & 0x00FF00FF00FF00FFULL;
    v = (v | (v << 4)) & 0x0F0F0F0F0F0F0F0FULL;
    v = (v | (v << 2)) & 0x3333333333333333ULL;
    v = (v | (v << 1)) & 0x5555555555555555ULL;
    return v;
  };
  lo = spread32(static_cast<std::uint32_t>(a));
  hi = spread32(static_cast<std::uint32_t>(a >> 32));
}

/// Unreduced carry-less square of a 3-limb polynomial: three emulated
/// limb squares, p[0..5] = a (x) a.
inline void sqr326_portable(const std::uint64_t a[3], std::uint64_t p[6]) {
  for (std::size_t i = 0; i < 3; ++i) clsqr64(a[i], p[2 * i], p[2 * i + 1]);
}

/// Unreduced carry-less product p[0..5] = a (x) b by 3-limb Karatsuba:
/// 6 emulated clmuls instead of 9. With a = a0 + a1 X + a2 X^2 (X = x^64)
/// and the six products
///   d_i  = a_i b_i,   e_ij = (a_i + a_j)(b_i + b_j)
/// the coefficients of the product are
///   c0 = d0
///   c1 = e01 + d0 + d1
///   c2 = e02 + d0 + d1 + d2
///   c3 = e12 + d1 + d2
///   c4 = d2
/// (characteristic 2: additions are XOR, no carries anywhere).
inline void mul326_karatsuba(const std::uint64_t a[3],
                             const std::uint64_t b[3], std::uint64_t p[6]) {
  std::uint64_t d0l, d0h, d1l, d1h, d2l, d2h;
  std::uint64_t e01l, e01h, e02l, e02h, e12l, e12h;
  clmul64(a[0], b[0], d0l, d0h);
  clmul64(a[1], b[1], d1l, d1h);
  clmul64(a[2], b[2], d2l, d2h);
  clmul64(a[0] ^ a[1], b[0] ^ b[1], e01l, e01h);
  clmul64(a[0] ^ a[2], b[0] ^ b[2], e02l, e02h);
  clmul64(a[1] ^ a[2], b[1] ^ b[2], e12l, e12h);

  const std::uint64_t c1l = e01l ^ d0l ^ d1l, c1h = e01h ^ d0h ^ d1h;
  const std::uint64_t c2l = e02l ^ d0l ^ d1l ^ d2l,
                      c2h = e02h ^ d0h ^ d1h ^ d2h;
  const std::uint64_t c3l = e12l ^ d1l ^ d2l, c3h = e12h ^ d1h ^ d2h;

  p[0] = d0l;
  p[1] = d0h ^ c1l;
  p[2] = c1h ^ c2l;
  p[3] = c2h ^ c3l;
  p[4] = c3h ^ d2l;
  p[5] = d2h;
}

}  // namespace medsec::gf2m
