// point_arith.h — the point formulas, templated over a field policy.
//
// Affine group law and Frobenius, curve membership and the subgroup gate,
// X9.62 (de)compression, López–Dahab doubling, Frobenius and mixed
// addition, batch normalization, the comb, the interleaved MSM and the
// Koblitz tau-adic double multiplication are static members of
// PointArith<Ops>, with Ops one of the gf2m/field_ops.h policies. The
// public functions in curve.h, fixed_base.h and scalar_mult.h (and the
// decoders in protocol/wire.h and engine/batch_verifier.h) read the active
// backend once and call the matching instantiation, so every field
// operation inside a whole scalar multiplication is an inlined kernel
// call. PointArith<ClmulOps> is instantiated only in
// gf2m/clmul_instances.cpp (see field_ops.h).
//
// No formula multiplies by a curve constant that is 1 (Curve::a_is_one,
// Curve::b_is_one): on K-163 (a = b = 1) a López–Dahab doubling costs
// 5S + 3M instead of 5S + 6M, and the mixed addition, the membership test
// and the decoders each drop one multiplication. The results are the same
// field elements either way.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "ecc/curve.h"
#include "ecc/fixed_base.h"
#include "ecc/koblitz.h"
#include "ecc/scalar_mult.h"
#include "gf2m/field_ops.h"

namespace medsec::ecc {

namespace detail {

/// 1 if v == 0 else 0, computed without data-dependent branches (compiles
/// to or/setcc): feeds Fe::select masks in the constant-schedule paths.
inline std::uint64_t is_zero_mask(const Fe& v) {
  const std::uint64_t m = v.limb(0) | v.limb(1) | v.limb(2);
  return static_cast<std::uint64_t>(m == 0);
}

/// Column `column` of the comb: bit r of the pattern is bit
/// r·kColumns + column of k.
inline unsigned comb_pattern(const Scalar& k, std::size_t column) {
  unsigned pattern = 0;
  for (unsigned r = 0; r < FixedBaseComb::kWidth; ++r) {
    const std::size_t bit = r * FixedBaseComb::kColumns + column;
    pattern |= static_cast<unsigned>(k.bit(bit)) << r;
  }
  return pattern;
}

}  // namespace detail

template <class Ops>
struct PointArith {
  using CombTable = std::array<Point, FixedBaseComb::kTableSize>;

  // --- affine arithmetic and validation (curve.h) ---------------------------
  static bool is_on_curve(const Curve& c, const Point& p);
  static bool validate_subgroup_point(const Curve& c, const Point& p);
  static bool validate_subgroup_point_exact(const Curve& c, const Point& p);
  static Point add(const Curve& c, const Point& p, const Point& q);
  static Point dbl(const Curve& c, const Point& p);
  static Point frobenius(const Point& p);
  static Curve::Compressed compress(const Point& p);
  static std::optional<Point> decompress(const Curve& c,
                                         const Curve::Compressed& in);
  /// decompress, then the subgroup gate: protocol::decode_point's pipeline.
  static std::optional<Point> decode(const Curve& c,
                                     const Curve::Compressed& in);
  /// decode for many points with one shared inversion of the x^2
  /// denominators (engine::decode_points_batch). Entries with x == 0 are
  /// refused, as decode refuses the order-2 point.
  static std::vector<std::optional<Point>> decode_batch(
      const Curve& c, std::span<const Curve::Compressed> in);

  // --- López–Dahab projective arithmetic (fixed_base.h) ---------------------
  static LdPoint ld_double(const Curve& c, const LdPoint& p);
  static LdPoint ld_add_affine(const Curve& c, const LdPoint& p,
                               const Point& q);
  /// tau(P) = (X^2, Y^2, Z^2): the Frobenius map in three squarings.
  static LdPoint ld_frobenius(const LdPoint& p);
  static Point to_affine(const LdPoint& p);
  /// Affine forms of many LD points with one shared batch inversion;
  /// infinity entries come back as the point at infinity.
  static std::vector<Point> normalize_ld_batch(const std::vector<LdPoint>& pts);
  /// Left-to-right double-and-add over the exact k (no reduction):
  /// variable-time in k, which must be public — the exact subgroup gate's
  /// group order. The ct-audit times it as its planted leak.
  static Point scalar_mult_ld(const Curve& c, const Scalar& k, const Point& p);

  // --- fixed-base comb (fixed_base.h) ---------------------------------------
  static CombTable comb_table(const Curve& c, const Point& base);
  static Point comb_mult(const Curve& c, const CombTable& table,
                         const Scalar& k);
  static Point comb_mult_ct(const Curve& c, const CombTable& table,
                            const Scalar& k);

  // --- interleaved multi-scalar multiplication (scalar_mult.h) --------------
  /// MsmTable's two phases: fill `table` from `terms` and `base`, then sum
  /// terms [first, last) plus base_k·base over it.
  static void msm_table(const Curve& c, std::span<const MsmTerm> terms,
                        const Point& base, MsmTable& table);
  static Point msm_evaluate(const Curve& c, const MsmTable& table,
                            std::size_t first, std::size_t last,
                            const Scalar& base_k);
  /// k1·p1 + k2·p2 on a Koblitz curve for points of the prime-order
  /// subgroup (or infinity): each scalar reduced mod delta and recoded as
  /// a width-4 TNAF (koblitz.h), the odd multiples of msm_table, and one
  /// chain of Frobenius maps where the wNAF path doubles.
  static Point tau_double_mult(const Curve& c, const TauReducer& tau,
                               const Scalar& k1, const Point& p1,
                               const Scalar& k2, const Point& p2);

 private:
  /// v·b, skipping the multiplication when b = 1. (The a terms are fused
  /// into sqr_add_mul when a != 1, so they branch in place.)
  static Fe mul_b(const Curve& c, const Fe& v) {
    return c.b_is_one() ? v : Ops::mul(c.b(), v);
  }
  /// (1, 3, 5, 7)·p for every point in `pts`, kOdd per point (infinity
  /// entries stay infinity): 2p and the mixed-addition chains, each set
  /// normalized with one shared batch inversion.
  static std::vector<Point> odd_multiples(const Curve& c,
                                          std::span<const Point> pts);
  /// acc + d·p for a nonzero odd digit d, from p's odd multiples.
  static LdPoint add_digit(const Curve& c, const LdPoint& acc,
                           const Point* odd, int d);
};

#if MEDSEC_HAVE_CLMUL_OPS
extern template struct PointArith<gf2m::ClmulOps>;
#endif

// --- affine arithmetic and validation ---------------------------------------

template <class Ops>
bool PointArith<Ops>::is_on_curve(const Curve& c, const Point& p) {
  if (p.infinity) return true;
  // y^2 + xy == x^3 + a x^2 + b, with x^3 + x^2 = x^2 (x + 1) when a = 1
  const Fe lhs = Ops::sqr_add_mul(p.y, p.x, p.y);
  const Fe x2 = Ops::sqr(p.x);
  const Fe cubic = c.a_is_one() ? Ops::mul(x2, p.x + Fe::one())
                                : Ops::mul_add_mul(x2, p.x, c.a(), x2);
  return lhs == cubic + c.b();
}

template <class Ops>
bool PointArith<Ops>::validate_subgroup_point(const Curve& c,
                                              const Point& p) {
  if (p.infinity) return false;
  if (!is_on_curve(c, p)) return false;
  if (p.x.is_zero()) return false;  // the order-2 point (0, sqrt(b))
  if (c.cofactor() == 2) {
    // Point-halving criterion (Knudsen): on y^2 + xy = x^3 + a x^2 + b an
    // affine point is in the image of doubling iff Tr(x) == Tr(a), and for
    // cofactor 2 that image is exactly the prime-order subgroup (it has
    // index 2 and contains no 2-torsion). One trace computation instead of
    // an order-length scalar multiplication — this is what lets the engine
    // layer validate thousands of incoming points per second.
    return Fe::trace(p.x) == c.trace_a();
  }
  return validate_subgroup_point_exact(c, p);
}

template <class Ops>
bool PointArith<Ops>::validate_subgroup_point_exact(const Curve& c,
                                                    const Point& p) {
  if (p.infinity) return false;
  if (!is_on_curve(c, p)) return false;
  if (p.x.is_zero()) return false;
  // Exact order·P in projective coordinates: one inversion total instead
  // of one per affine group operation. (The constant-length ladder cannot
  // be used here: its k -> k + n padding is only sound for points whose
  // order divides n, which is the very thing being checked.)
  return scalar_mult_ld(c, c.order(), p).infinity;
}

template <class Ops>
Point PointArith<Ops>::add(const Curve& c, const Point& p, const Point& q) {
  if (p.infinity) return q;
  if (q.infinity) return p;
  if (p.x == q.x) {
    if (p.y == q.y) return dbl(c, p);
    return Point::at_infinity();  // q == -p
  }
  const Fe dx = p.x + q.x;
  const Fe lambda = Ops::mul(p.y + q.y, Ops::inv(dx));
  const Fe x3 = Ops::sqr(lambda) + lambda + dx + c.a();
  const Fe y3 = Ops::mul(lambda, p.x + x3) + x3 + p.y;
  return Point::affine(x3, y3);
}

template <class Ops>
Point PointArith<Ops>::dbl(const Curve& c, const Point& p) {
  if (p.infinity) return p;
  if (p.x.is_zero()) return Point::at_infinity();  // order-2 point
  const Fe lambda = p.x + Ops::mul(p.y, Ops::inv(p.x));
  const Fe x3 = Ops::sqr(lambda) + lambda + c.a();
  const Fe y3 = Ops::sqr(p.x) + Ops::mul(lambda + Fe::one(), x3);
  return Point::affine(x3, y3);
}

template <class Ops>
Point PointArith<Ops>::frobenius(const Point& p) {
  if (p.infinity) return p;
  return Point::affine(Ops::sqr(p.x), Ops::sqr(p.y));
}

template <class Ops>
Curve::Compressed PointArith<Ops>::compress(const Point& p) {
  int bit = 0;
  if (!p.x.is_zero()) {
    const Fe z = Ops::mul(p.y, Ops::inv(p.x));
    bit = z.bit(0) ? 1 : 0;
  }
  return Curve::Compressed{p.x, bit};
}

template <class Ops>
std::optional<Point> PointArith<Ops>::decompress(const Curve& c,
                                                 const Curve::Compressed& in) {
  if (in.x.is_zero()) {
    // y^2 = b -> the order-2 point.
    return Point::affine(in.x, Fe::sqrt(c.b()));
  }
  // Solve y^2 + xy = x^3 + a x^2 + b. Substitute y = x*z:
  // z^2 + z = x + a + b/x^2.
  const Fe x_inv = Ops::inv(in.x);
  const Fe rhs = in.x + c.a() + mul_b(c, Ops::sqr(x_inv));
  if (Fe::trace(rhs) != 0) return std::nullopt;  // no solution
  Fe z = Fe::half_trace(rhs);
  // half_trace solves z^2+z=rhs when Tr(rhs)=0; pick the root with the
  // requested low bit (the other root is z+1).
  if ((z.bit(0) ? 1 : 0) != in.y_bit) z += Fe::one();
  const Point p = Point::affine(in.x, Ops::mul(in.x, z));
  if (!is_on_curve(c, p)) return std::nullopt;
  return p;
}

template <class Ops>
std::optional<Point> PointArith<Ops>::decode(const Curve& c,
                                             const Curve::Compressed& in) {
  const auto p = decompress(c, in);
  if (!p || !validate_subgroup_point(c, *p)) return std::nullopt;
  return p;
}

template <class Ops>
std::vector<std::optional<Point>> PointArith<Ops>::decode_batch(
    const Curve& c, std::span<const Curve::Compressed> in) {
  std::vector<std::optional<Point>> out(in.size());
  std::vector<Fe> denoms(in.size());  // x^2, inverted in one shared batch
  for (std::size_t i = 0; i < in.size(); ++i) denoms[i] = Ops::sqr(in[i].x);
  Ops::batch_inv(denoms.data(), denoms.size());

  // Solve z^2 + z = x + a + b/x^2 per entry, pick the root with the
  // encoded parity, and gate on subgroup membership — decode's pipeline,
  // minus one inversion per point.
  for (std::size_t i = 0; i < in.size(); ++i) {
    const Fe& x = in[i].x;
    if (x.is_zero()) continue;  // the order-2 point: never a protocol point
    const Fe rhs = x + c.a() + mul_b(c, denoms[i]);
    if (Fe::trace(rhs) != 0) continue;  // x is not on the curve
    Fe z = Fe::half_trace(rhs);
    if ((z.bit(0) ? 1 : 0) != in[i].y_bit) z += Fe::one();
    const Point p = Point::affine(x, Ops::mul(x, z));
    if (!validate_subgroup_point(c, p)) continue;
    out[i] = p;
  }
  return out;
}

// --- López–Dahab projective arithmetic ---------------------------------------

template <class Ops>
LdPoint PointArith<Ops>::ld_double(const Curve& c, const LdPoint& p) {
  // HMV "Guide to ECC" Alg 3.24 for y^2 + xy = x^3 + a x^2 + b:
  //   Z3 = X1^2 Z1^2,  X3 = X1^4 + b Z1^4,
  //   Y3 = b Z1^4 Z3 + X3 (a Z3 + Y1^2 + b Z1^4).
  // b Z1^4 is formed once; on K-163 neither constant costs a multiplication.
  const Fe x2 = Ops::sqr(p.X);
  const Fe z2 = Ops::sqr(p.Z);
  const Fe bz4 = mul_b(c, Ops::sqr(z2));
  LdPoint r;
  r.Z = Ops::mul(x2, z2);
  r.X = Ops::sqr(x2) + bz4;
  const Fe t = (c.a_is_one() ? Ops::sqr(p.Y) + r.Z
                             : Ops::sqr_add_mul(p.Y, c.a(), r.Z)) +
               bz4;
  r.Y = Ops::mul_add_mul(bz4, r.Z, r.X, t);
  return r;
}

template <class Ops>
LdPoint PointArith<Ops>::ld_add_affine(const Curve& c, const LdPoint& p,
                                       const Point& q) {
  if (q.infinity) return p;
  const std::uint64_t p_inf = detail::is_zero_mask(p.Z);

  // lambda = A / C with A = Y1 + y2 Z1^2, B = X1 + x2 Z1, C = Z1 B.
  const Fe z2 = Ops::sqr(p.Z);
  const Fe A = p.Y + Ops::mul(q.y, z2);
  const Fe B = p.X + Ops::mul(q.x, p.Z);

  // P = Q (B == A == 0): the mixed formula degenerates; fall back to
  // doubling. P = -Q (B == 0, A != 0) needs no special case — the general
  // formula yields Z3 = 0, i.e. infinity. Both masks are evaluated
  // unconditionally (no short-circuit) so the instruction sequence stays
  // uniform; the branch itself tests a combined flag that is zero unless
  // the accumulator collides with a table tooth (~2^-159 per add for
  // uniform scalars).
  const std::uint64_t degenerate =
      (p_inf ^ 1) & detail::is_zero_mask(B) & detail::is_zero_mask(A);
  if (degenerate) return ld_double(c, p);

  const Fe C = Ops::mul(p.Z, B);
  LdPoint r;
  r.Z = Ops::sqr(C);
  // X3 = A^2 + C (A + B^2 + a C)
  const Fe t = A + (c.a_is_one() ? Ops::sqr(B) + C
                                 : Ops::sqr_add_mul(B, c.a(), C));
  r.X = Ops::sqr_add_mul(A, C, t);
  // Y3 = (E + Z3) F + G with E = A C, F = X3 + x2 Z3, G = (x2 + y2) Z3^2.
  const Fe E = Ops::mul(A, C);
  const Fe F = r.X + Ops::mul(q.x, r.Z);
  r.Y = Ops::mul_add_mul(E + r.Z, F, q.x + q.y, Ops::sqr(r.Z));

  // P at infinity: the sum is Q. Constant-time select so the comb's
  // leading zero columns don't take an accumulator-dependent branch.
  r.X = Fe::select(p_inf, r.X, q.x);
  r.Y = Fe::select(p_inf, r.Y, q.y);
  r.Z = Fe::select(p_inf, r.Z, Fe::one());
  return r;
}

template <class Ops>
LdPoint PointArith<Ops>::ld_frobenius(const LdPoint& p) {
  // x = X/Z and y = Y/Z^2 map to x^2 and y^2.
  return LdPoint{Ops::sqr(p.X), Ops::sqr(p.Y), Ops::sqr(p.Z)};
}

template <class Ops>
Point PointArith<Ops>::to_affine(const LdPoint& p) {
  if (p.is_infinity()) return Point::at_infinity();
  const Fe zi = Ops::inv(p.Z);
  return Point::affine(Ops::mul(p.X, zi), Ops::mul(p.Y, Ops::sqr(zi)));
}

template <class Ops>
std::vector<Point> PointArith<Ops>::normalize_ld_batch(
    const std::vector<LdPoint>& pts) {
  std::vector<Fe> zinv(pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) zinv[i] = pts[i].Z;
  Ops::batch_inv(zinv.data(), zinv.size());
  std::vector<Point> out(pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    if (pts[i].is_infinity()) continue;  // stays at the default infinity
    out[i] = Point::affine(Ops::mul(pts[i].X, zinv[i]),
                           Ops::mul(pts[i].Y, Ops::sqr(zinv[i])));
  }
  return out;
}

template <class Ops>
Point PointArith<Ops>::scalar_mult_ld(const Curve& c, const Scalar& k,
                                      const Point& p) {
  if (p.infinity) return p;
  LdPoint acc = LdPoint::infinity();
  for (std::size_t i = k.bit_length(); i-- > 0;) {
    acc = ld_double(c, acc);
    if (k.bit(i)) acc = ld_add_affine(c, acc, p);
  }
  return to_affine(acc);
}

// --- fixed-base comb --------------------------------------------------------

template <class Ops>
typename PointArith<Ops>::CombTable PointArith<Ops>::comb_table(
    const Curve& c, const Point& base) {
  constexpr unsigned kWidth = FixedBaseComb::kWidth;
  // Row anchors R_i = 2^(i * kColumns) * base, doubled in projective
  // coordinates (construction is one-time per process).
  std::array<Point, kWidth> rows;
  rows[0] = base;
  for (unsigned i = 1; i < kWidth; ++i) {
    LdPoint acc = LdPoint::from_affine(rows[i - 1]);
    for (std::size_t j = 0; j < FixedBaseComb::kColumns; ++j)
      acc = ld_double(c, acc);
    rows[i] = to_affine(acc);
  }

  CombTable table;
  table[0] = Point::at_infinity();
  for (std::size_t e = 1; e < FixedBaseComb::kTableSize; ++e) {
    const unsigned low = static_cast<unsigned>(e & (~e + 1));  // lowest bit
    unsigned row = 0;
    while ((1u << row) != low) ++row;
    table[e] = add(c, table[e ^ low], rows[row]);
  }
  return table;
}

template <class Ops>
Point PointArith<Ops>::comb_mult(const Curve& c, const CombTable& table,
                                 const Scalar& k0) {
  const Scalar k = c.scalar_ring().reduce(k0);
  LdPoint acc = LdPoint::infinity();
  for (std::size_t j = FixedBaseComb::kColumns; j-- > 0;) {
    acc = ld_double(c, acc);
    const unsigned pattern = detail::comb_pattern(k, j);
    if (pattern != 0) acc = ld_add_affine(c, acc, table[pattern]);
  }
  return to_affine(acc);
}

template <class Ops>
Point PointArith<Ops>::comb_mult_ct(const Curve& c, const CombTable& table,
                                    const Scalar& k0) {
  // Barrett reduction: no branch or loop on the nonce's bit length.
  const Scalar k = c.scalar_ring().reduce(k0);
  LdPoint acc = LdPoint::infinity();
  for (std::size_t j = FixedBaseComb::kColumns; j-- > 0;) {
    acc = ld_double(c, acc);
    const unsigned pattern = detail::comb_pattern(k, j);

    // Masked full-table scan: every entry is read, the selected tooth is
    // kept (table[1] stands in for the never-added pattern-0 tooth so the
    // add below always executes).
    Fe tx = table[1].x, ty = table[1].y;
    for (unsigned e = 2; e < FixedBaseComb::kTableSize; ++e) {
      const std::uint64_t hit = static_cast<std::uint64_t>(pattern == e);
      tx = Fe::select(hit, tx, table[e].x);
      ty = Fe::select(hit, ty, table[e].y);
    }

    const LdPoint sum = ld_add_affine(c, acc, Point::affine(tx, ty));
    const std::uint64_t keep = static_cast<std::uint64_t>(pattern == 0);
    acc.X = Fe::select(keep, sum.X, acc.X);
    acc.Y = Fe::select(keep, sum.Y, acc.Y);
    acc.Z = Fe::select(keep, sum.Z, acc.Z);
  }
  return to_affine(acc);
}

// --- interleaved multi-scalar multiplication --------------------------------

template <class Ops>
std::vector<Point> PointArith<Ops>::odd_multiples(const Curve& c,
                                                  std::span<const Point> pts) {
  constexpr std::size_t kOdd = MsmTable::kOdd;
  const std::size_t n = pts.size();
  // 2P for every point, normalized together (1st batch_inv).
  std::vector<LdPoint> doubles(n, LdPoint::infinity());
  for (std::size_t i = 0; i < n; ++i)
    if (!pts[i].infinity)
      doubles[i] = ld_double(c, LdPoint::from_affine(pts[i]));
  const std::vector<Point> two_p = normalize_ld_batch(doubles);

  // Odd multiples 1P, 3P, 5P, 7P per point — a mixed-addition chain in
  // projective coordinates, normalized together (2nd batch_inv).
  std::vector<LdPoint> odd_ld(n * kOdd, LdPoint::infinity());
  for (std::size_t i = 0; i < n; ++i) {
    if (pts[i].infinity) continue;
    LdPoint acc = LdPoint::from_affine(pts[i]);
    odd_ld[i * kOdd] = acc;
    for (std::size_t j = 1; j < kOdd; ++j) {
      acc = ld_add_affine(c, acc, two_p[i]);
      odd_ld[i * kOdd + j] = acc;
    }
  }
  return normalize_ld_batch(odd_ld);
}

template <class Ops>
LdPoint PointArith<Ops>::add_digit(const Curve& c, const LdPoint& acc,
                                   const Point* odd, int d) {
  const Point& m = odd[static_cast<std::size_t>(d > 0 ? d : -d) / 2];
  return ld_add_affine(c, acc, d > 0 ? m : c.negate(m));
}

template <class Ops>
void PointArith<Ops>::msm_table(const Curve& c, std::span<const MsmTerm> terms,
                                const Point& base, MsmTable& t) {
  const std::size_t n = terms.size();
  // A reduced scalar has at most bit_length(order) + 1 wNAF digits, the
  // base's included, so every evaluation's chain fits in these rows.
  t.digits_.assign((c.order().bit_length() + 1) * n, 0);
  t.lengths_.assign(n, 0);

  // Digits per term; the points that contribute (the base last) get odd
  // multiples.
  std::vector<Point> pts(n + 1);
  for (std::size_t i = 0; i < n; ++i) {
    if (terms[i].p.infinity) continue;
    const Scalar k = c.scalar_ring().reduce(terms[i].k);
    if (k.is_zero()) continue;
    const std::vector<int> digits = wnaf_digits(k, MsmTable::kWidth);
    for (std::size_t j = 0; j < digits.size(); ++j)
      t.digits_[j * n + i] = static_cast<std::int8_t>(digits[j]);
    t.lengths_[i] = digits.size();
    pts[i] = terms[i].p;
  }
  pts[n] = base;
  t.odd_ = odd_multiples(c, pts);
}

template <class Ops>
Point PointArith<Ops>::msm_evaluate(const Curve& c, const MsmTable& t,
                                    std::size_t first, std::size_t last,
                                    const Scalar& base_k) {
  constexpr std::size_t kOdd = MsmTable::kOdd;
  const std::size_t n = t.lengths_.size();
  const Point* base_odd = t.odd_.data() + n * kOdd;
  std::vector<int> base_digits;
  if (!base_odd->infinity) {
    const Scalar k = c.scalar_ring().reduce(base_k);
    if (!k.is_zero()) base_digits = wnaf_digits(k, MsmTable::kWidth);
  }
  std::size_t top = base_digits.size();
  for (std::size_t i = first; i < last; ++i)
    if (t.lengths_[i] > top) top = t.lengths_[i];

  // One shared doubling chain, interleaved wNAF additions; doubling starts
  // at the first addition.
  LdPoint acc = LdPoint::infinity();
  for (std::size_t j = top; j-- > 0;) {
    if (!acc.is_infinity()) acc = ld_double(c, acc);
    const std::int8_t* row = t.digits_.data() + j * n;
    for (std::size_t i = first; i < last; ++i)
      if (row[i] != 0)
        acc = add_digit(c, acc, t.odd_.data() + i * kOdd, row[i]);
    if (j < base_digits.size() && base_digits[j] != 0)
      acc = add_digit(c, acc, base_odd, base_digits[j]);
  }
  return to_affine(acc);
}

template <class Ops>
Point PointArith<Ops>::tau_double_mult(const Curve& c, const TauReducer& tau,
                                       const Scalar& k1, const Point& p1,
                                       const Scalar& k2, const Point& p2) {
  // The digits are odd in (-8, 8), the range of the (1, 3, 5, 7)·p tables.
  static_assert(TauReducer::kWidth == MsmTable::kWidth);
  constexpr std::size_t kOdd = MsmTable::kOdd;
  // TNAF digits of each scalar mod n, then mod delta: ~m digits where the
  // unreduced scalar would need ~2m. delta·P = O on the prime-order
  // subgroup, so the reduced scalar acts as k there.
  std::int8_t digits[2][TauReducer::kMaxDigits];
  std::size_t lengths[2] = {0, 0};
  Point pts[2] = {p1, p2};
  const Scalar* ks[2] = {&k1, &k2};
  for (std::size_t i = 0; i < 2; ++i) {
    if (pts[i].infinity) continue;
    lengths[i] = tau.digits(tau.reduce(c.scalar_ring().reduce(*ks[i])),
                            digits[i]);
    if (lengths[i] == 0) pts[i] = Point::at_infinity();
  }
  // (1, 3, 5, 7)·p per point; the generator's come with the curve's
  // tables (every protocol caller passes it as p1).
  const TauNafPrecomp& gen = generator_tau_precomp(c);
  const bool p1_is_g = pts[0] == gen.base;
  const std::vector<Point> table =
      odd_multiples(c, std::span(pts + (p1_is_g ? 1 : 0), p1_is_g ? 1 : 2));
  const Point* odd[2] = {p1_is_g ? gen.odd.data() : table.data(),
                         table.data() + (p1_is_g ? 0 : kOdd)};

  // Horner in tau: one chain of Frobenius maps (three squarings each) in
  // place of the doublings, interleaved additions of the digit multiples.
  LdPoint acc = LdPoint::infinity();
  for (std::size_t j = std::max(lengths[0], lengths[1]); j-- > 0;) {
    if (!acc.is_infinity()) acc = ld_frobenius(acc);
    for (std::size_t i = 0; i < 2; ++i)
      if (j < lengths[i] && digits[i][j] != 0)
        acc = add_digit(c, acc, odd[i], digits[i][j]);
  }
  return to_affine(acc);
}

}  // namespace medsec::ecc
