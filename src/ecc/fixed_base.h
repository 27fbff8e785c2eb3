// fixed_base.h — fixed-base comb scalar multiplication (Lim–Lee) with
// López–Dahab projective arithmetic.
//
// Every Schnorr signature, ECIES encapsulation, and key generation
// multiplies the *same* point — the curve generator. The comb method
// precomputes the 2^w - 1 "teeth" sums T[e] = sum_i e_i * 2^(i*d) * G once
// and then computes k*G in d ≈ 163/w point doublings plus at most d
// additions — with the doublings and additions running in López–Dahab
// projective coordinates (x = X/Z, y = Y/Z^2), so the whole multiplication
// costs ONE field inversion (the final affine conversion) instead of one
// per affine group operation.
//
// Two evaluation modes:
//   mult()    — variable-time table indexing; public scalars only.
//   mult_ct() — fixed d-iteration schedule, every iteration performs one
//               double and one add, and the tooth is fetched with a masked
//               full-table scan (no secret-dependent addressing): the
//               device-side replacement for generator multiplications.
#pragma once

#include <array>
#include <cstdint>

#include "ecc/curve.h"

namespace medsec::ecc {

/// A point in López–Dahab projective coordinates: x = X/Z, y = Y/Z^2.
/// Z == 0 encodes the point at infinity.
struct LdPoint {
  Fe X, Y, Z;

  static LdPoint infinity() { return LdPoint{}; }
  static LdPoint from_affine(const Point& p);
  Point to_affine() const;  ///< one field inversion
  bool is_infinity() const { return Z.is_zero(); }
};

/// 2P in López–Dahab coordinates, no inversion: 5S + 3M on K-163
/// (a = b = 1), one more M per constant that is not 1.
LdPoint ld_double(const Curve& curve, const LdPoint& p);
/// P + Q with Q affine ("mixed" addition, no inversion): 5S + 8M when
/// a = 1, one more M otherwise. Handles P = infinity, P = Q (doubling)
/// and P = -Q (infinity).
LdPoint ld_add_affine(const Curve& curve, const LdPoint& p, const Point& q);

class FixedBaseComb {
 public:
  static constexpr unsigned kWidth = 4;                  // comb rows
  static constexpr std::size_t kColumns = 41;            // ceil(163 / 4)
  static constexpr std::size_t kTableSize = 1u << kWidth;

  FixedBaseComb(const Curve& curve, const Point& base);

  const Point& base() const { return base_; }

  /// k·base, variable-time table indexing. Reduces k mod the group order.
  Point mult(const Scalar& k) const;

  /// k·base with a key-independent operation schedule: exactly kColumns
  /// double+add iterations, tooth selected by masked scan over the whole
  /// table. Reduces k mod the group order.
  Point mult_ct(const Scalar& k) const;

 private:
  Curve curve_;  // by value: the comb must outlive any caller-held Curve
  Point base_;
  /// table_[e] = sum of e_i * 2^(i*kColumns) * base over set bits of e;
  /// table_[0] is the point at infinity.
  std::array<Point, kTableSize> table_;
};

/// Process-wide comb for a curve's generator, built on the first lookup of
/// the curve's parameter set and kept for the lifetime of the process
/// (ecc/curve_tables.h). Keyed by parameters, not address, so dynamically
/// constructed Curve objects — including ones whose addresses get
/// recycled — are safe; after a Curve's first lookup, its lookups take no
/// lock.
const FixedBaseComb& generator_comb(const Curve& curve);

}  // namespace medsec::ecc
