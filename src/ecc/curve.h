// curve.h — binary-field elliptic curves y^2 + xy = x^3 + a·x^2 + b over
// F_2^163, and affine point arithmetic.
//
// The paper's co-processor (§4) uses the NIST Koblitz curve K-163 ("Our ECC
// chip uses a Koblitz curve defined over F_2^163, which provides 80-bit
// security, equivalent to 1024-bit RSA"). We also carry B-163 so tests can
// show the code is not specialized to one parameter set.
//
// Affine arithmetic here is the *reference* path (used by the reader/server
// side and by tests); the constant-time ladder in ladder.h is what the
// modeled tag hardware runs. The formulas themselves live in
// point_arith.h: each member below reads the field backend once and runs
// on its inlined kernel.
#pragma once

#include <atomic>
#include <optional>
#include <string>

#include "bigint/biguint.h"
#include "bigint/modring.h"
#include "gf2m/gf2_163.h"

namespace medsec::ecc {

using Fe = gf2m::Gf163;          ///< field element
using Scalar = bigint::U192;     ///< scalar (fits 163-bit order)

class Curve;

namespace detail {
struct CurveTables;  // ecc/curve_tables.h
/// The tables of `curve`'s parameter set, built on its first lookup.
const CurveTables& curve_tables(const Curve& curve);

/// Where a Curve keeps the tables its first lookup found, so later lookups
/// are one load. A copy carries the pointer (it has the same parameters);
/// a new Curve starts without one.
class CurveTablesSlot {
 public:
  CurveTablesSlot() = default;
  CurveTablesSlot(const CurveTablesSlot& other) : p_(other.load()) {}
  CurveTablesSlot& operator=(const CurveTablesSlot& other) {
    store(other.load());
    return *this;
  }
  const CurveTables* load() const {
    return p_.load(std::memory_order_acquire);
  }
  void store(const CurveTables* t) const {
    p_.store(t, std::memory_order_release);
  }

 private:
  mutable std::atomic<const CurveTables*> p_{nullptr};
};
}  // namespace detail

/// An affine point, or the point at infinity.
struct Point {
  Fe x;
  Fe y;
  bool infinity = true;

  static Point at_infinity() { return Point{}; }
  static Point affine(const Fe& x, const Fe& y) {
    return Point{x, y, false};
  }

  friend bool operator==(const Point& p, const Point& q) {
    if (p.infinity || q.infinity) return p.infinity == q.infinity;
    return p.x == q.x && p.y == q.y;
  }
};

/// Curve y^2 + xy = x^3 + a x^2 + b over F_2^163 with a distinguished
/// base point of prime order.
class Curve {
 public:
  Curve(std::string name, const Fe& a, const Fe& b, const Fe& gx,
        const Fe& gy, const Scalar& order, unsigned cofactor);

  /// NIST K-163 (the paper's curve): a = b = 1.
  static const Curve& k163();
  /// NIST B-163 (pseudo-random curve over the same field).
  static const Curve& b163();

  const std::string& name() const { return name_; }
  const Fe& a() const { return a_; }
  const Fe& b() const { return b_; }
  const Point& base_point() const { return g_; }
  const Scalar& order() const { return order_; }
  unsigned cofactor() const { return cofactor_; }
  /// Whether a (resp. b) is 1, read from the curve's values. The point and
  /// ladder formulas skip every multiplication by a constant that is 1:
  /// a = 1 on both carried curves, b = 1 on K-163.
  bool a_is_one() const { return a_is_one_; }
  bool b_is_one() const { return b_is_one_; }
  /// Tr(a), precomputed for the halving-criterion subgroup gate.
  int trace_a() const { return trace_a_; }
  /// Arithmetic modulo the group order (for protocol scalars).
  const bigint::ModRing<192>& scalar_ring() const { return ring_; }

  /// Membership test: y^2 + xy == x^3 + a x^2 + b (infinity is on-curve).
  bool is_on_curve(const Point& p) const;

  /// Full point validation for untrusted inputs: on-curve, not infinity,
  /// and in the prime-order subgroup. This is the fault-attack /
  /// invalid-curve-attack gate the paper's security analysis assumes at the
  /// protocol boundary.
  ///
  /// For cofactor-2 curves (both NIST binary curves here) the subgroup test
  /// is the O(1) point-halving criterion Tr(x) == Tr(a) instead of an
  /// order-length scalar multiplication — the doubling image 2E, which the
  /// criterion characterizes, IS the prime-order subgroup when the cofactor
  /// is 2. Other cofactors fall back to the exact order·P check.
  bool validate_subgroup_point(const Point& p) const;

  /// The exact order·P == infinity subgroup check (one projective scalar
  /// multiplication). Reference oracle for the fast path above; tests
  /// cross-check the two on points inside and outside the subgroup.
  bool validate_subgroup_point_exact(const Point& p) const;

  Point negate(const Point& p) const;
  Point add(const Point& p, const Point& q) const;
  Point dbl(const Point& p) const;

  /// The Frobenius endomorphism phi(x, y) = (x^2, y^2). On a Koblitz
  /// curve (a, b in F_2, the paper's K-163) this maps curve points to
  /// curve points in two squarings — three in López–Dahab coordinates,
  /// (X, Y, Z) -> (X^2, Y^2, Z^2), against a doubling's five squarings and
  /// three multiplications — the structural reason Koblitz curves admit
  /// very cheap scalar multiplication (tau-adic methods, koblitz.h) and
  /// part of why the paper picks one. Satisfies phi^2 + 2 = mu*phi with
  /// mu = (-1)^(1-a), i.e. mu = 1 for K-163.
  Point frobenius(const Point& p) const;
  /// mu for phi^2 - mu*phi + 2 = 0 (+1 for a = 1, -1 for a = 0).
  int frobenius_trace_mu() const;

  /// Reference scalar multiplication (simple, not constant-time; used as a
  /// test oracle and by the energy-rich reader/server side).
  Point scalar_mult_reference(const Scalar& k, const Point& p) const;

  /// Point compression: x plus one bit. For x != 0 the bit is the trace-adjusted
  /// low bit of y/x (standard X9.62 binary-field compression).
  struct Compressed {
    Fe x;
    int y_bit;
  };
  Compressed compress(const Point& p) const;
  std::optional<Point> decompress(const Compressed& c) const;

 private:
  friend const detail::CurveTables& detail::curve_tables(const Curve& curve);

  std::string name_;
  Fe a_;
  Fe b_;
  Point g_;
  Scalar order_;
  unsigned cofactor_;
  int trace_a_;  ///< Tr(a), precomputed for the halving-criterion gate
  bool a_is_one_;
  bool b_is_one_;
  bigint::ModRing<192> ring_;
  detail::CurveTablesSlot tables_;
};

}  // namespace medsec::ecc
