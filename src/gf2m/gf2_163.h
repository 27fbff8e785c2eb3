// gf2_163.h — the binary extension field F_2^163.
//
// This is the field the paper's co-processor computes in: NIST's K-163 /
// B-163 field, F_2[x] / (x^163 + x^7 + x^6 + x^3 + 1). Elements are stored
// in three 64-bit limbs, little-endian limb order, with the top limb
// holding bits 128..162 (35 bits).
//
// Multiplication is carry-free (the property the paper exploits: "the
// multiplier is smaller and faster than integer multipliers"). Inversion is
// Itoh–Tsujii (9 multiplications + 162 squarings); square roots and
// half-traces support point (de)compression and quadratic solving.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "bigint/biguint.h"
#include "gf2m/backend.h"

namespace medsec::gf2m {

/// An element of F_2^163.
class Gf163 {
 public:
  static constexpr std::size_t kBits = 163;
  static constexpr std::size_t kLimbs = 3;
  /// Reduction polynomial: x^163 + x^7 + x^6 + x^3 + 1 (NIST).
  static constexpr std::array<unsigned, 3> kPentanomial{7, 6, 3};

  constexpr Gf163() = default;
  constexpr explicit Gf163(std::uint64_t v) : limb_{v, 0, 0} {}
  constexpr Gf163(std::uint64_t l0, std::uint64_t l1, std::uint64_t l2)
      : limb_{l0, l1, l2} {}

  static Gf163 zero() { return Gf163{}; }
  static Gf163 one() { return Gf163{1}; }

  /// Parse big-endian hex (as in the NIST curve parameter listings).
  static Gf163 from_hex(std::string_view hex);
  std::string to_hex() const;

  /// Convert from/to a 192-bit integer bit pattern (bits above 162 must be
  /// zero on input; they are masked).
  static Gf163 from_bits(const bigint::U192& v);
  bigint::U192 to_bits() const;

  constexpr std::uint64_t limb(std::size_t i) const { return limb_[i]; }
  /// The three limbs, in the layout the product kernels take.
  constexpr const std::uint64_t* limbs() const { return limb_.data(); }

  constexpr bool is_zero() const {
    return (limb_[0] | limb_[1] | limb_[2]) == 0;
  }
  constexpr bool bit(std::size_t i) const {
    return ((limb_[i / 64] >> (i % 64)) & 1u) != 0;
  }

  friend constexpr bool operator==(const Gf163& a, const Gf163& b) {
    return ((a.limb_[0] ^ b.limb_[0]) | (a.limb_[1] ^ b.limb_[1]) |
            (a.limb_[2] ^ b.limb_[2])) == 0;
  }

  /// Addition in characteristic 2 is XOR.
  friend constexpr Gf163 operator+(const Gf163& a, const Gf163& b) {
    return Gf163{a.limb_[0] ^ b.limb_[0], a.limb_[1] ^ b.limb_[1],
                 a.limb_[2] ^ b.limb_[2]};
  }
  Gf163& operator+=(const Gf163& b) {
    limb_[0] ^= b.limb_[0];
    limb_[1] ^= b.limb_[1];
    limb_[2] ^= b.limb_[2];
    return *this;
  }

  friend Gf163 operator*(const Gf163& a, const Gf163& b) { return mul(a, b); }

  // The per-operation API: each call dispatches to the active backend
  // through its vtable. Formula code (inversion, point arithmetic, ladders,
  // MSM, decoders) does not use it — it runs on a field_ops.h policy picked
  // once per top-level operation. Keep these for cold callers.
  static Gf163 mul(const Gf163& a, const Gf163& b);
  static Gf163 sqr(const Gf163& a);
  /// a·b + c·d with a single modular reduction: the two unreduced 326-bit
  /// carry-less products are XOR-accumulated before the fold (lazy
  /// reduction). Shaves one reduction per differential-add in the ladder.
  static Gf163 mul_add_mul(const Gf163& a, const Gf163& b, const Gf163& c,
                           const Gf163& d);
  /// a^2 + b·c with a single modular reduction.
  static Gf163 sqr_add_mul(const Gf163& a, const Gf163& b, const Gf163& c);
  /// Multiplicative inverse (Itoh–Tsujii, on one backend for the whole
  /// chain). Precondition: a != 0.
  static Gf163 inv(const Gf163& a);
  /// In-place batch inversion (Montgomery's trick): n elements cost one
  /// field inversion plus ~3n multiplications instead of n inversions.
  /// Zero elements are left at zero and do not poison the batch; callers
  /// (ladder output conversion, ECIES, trace simulation) use zero as the
  /// point-at-infinity denominator marker.
  static void batch_inv(Gf163* elems, std::size_t n);
  /// a^(2^n) — n squarings. Accelerated by precomputed multi-squaring
  /// tables for the Itoh–Tsujii chain strides (5, 10, 20, 40, 81): each
  /// stride is one linear-map application instead of n serial squarings.
  static Gf163 sqr_n(Gf163 a, unsigned n);
  /// Square root (every element has exactly one in characteristic 2).
  static Gf163 sqrt(const Gf163& a);
  /// Absolute trace Tr(a) = a + a^2 + ... + a^(2^162), returns 0 or 1.
  static int trace(const Gf163& a);
  /// Half-trace H(c) = sum_{i=0..81} c^(2^(2i)); solves z^2 + z = c when
  /// Tr(c) == 0 (m odd). The other root is H(c) + 1.
  static Gf163 half_trace(const Gf163& a);

  /// Constant-time select: a if choice==0 else b.
  static constexpr Gf163 select(std::uint64_t choice, const Gf163& a,
                                const Gf163& b) {
    const std::uint64_t m = 0 - (choice & 1);
    return Gf163{(a.limb_[0] & ~m) | (b.limb_[0] & m),
                 (a.limb_[1] & ~m) | (b.limb_[1] & m),
                 (a.limb_[2] & ~m) | (b.limb_[2] & m)};
  }

  /// Constant-time conditional swap of a and b when choice==1.
  static constexpr void cswap(std::uint64_t choice, Gf163& a, Gf163& b) {
    const std::uint64_t m = 0 - (choice & 1);
    for (std::size_t i = 0; i < kLimbs; ++i) {
      const std::uint64_t t = (a.limb_[i] ^ b.limb_[i]) & m;
      a.limb_[i] ^= t;
      b.limb_[i] ^= t;
    }
  }

  /// Reduce a 326-bit polynomial product (6 limbs) modulo the field
  /// polynomial. Exposed for the digit-serial hardware model's cross-check.
  static Gf163 reduce_product(const std::array<std::uint64_t, 6>& p);

 private:
  std::array<std::uint64_t, kLimbs> limb_{};
};

inline Gf163 Gf163::mul(const Gf163& a, const Gf163& b) {
  return detail::active_vtable()->field_mul(a, b);
}

inline Gf163 Gf163::sqr(const Gf163& a) {
  return detail::active_vtable()->field_sqr(a);
}

inline Gf163 Gf163::mul_add_mul(const Gf163& a, const Gf163& b,
                                const Gf163& c, const Gf163& d) {
  return detail::active_vtable()->field_mul_add_mul(a, b, c, d);
}

inline Gf163 Gf163::sqr_add_mul(const Gf163& a, const Gf163& b,
                                const Gf163& c) {
  return detail::active_vtable()->field_sqr_add_mul(a, b, c);
}

}  // namespace medsec::gf2m
